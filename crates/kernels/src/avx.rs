//! The AVX2+FMA instance of the split-loop row kernel.
//!
//! The paper's fastest kernels are hand-vectorized with SSE on SuperMUC and
//! QPX on Blue Gene/Q because "performing this complex code transformation
//! for arbitrary lattice models couldn't be done automatically by any of
//! the compilers" (§4.1). Here the transformation is the §4.1 loop
//! splitting itself ([`crate::soa`]); the instruction selection is the
//! compiler's. The sweeps of this module run the *same* row driver and
//! operators as [`crate::soa`], compiled inside a
//! `#[target_feature(enable = "avx2", enable = "fma")]` function — 256-bit
//! lanes, four cells per instruction, `mul_add` lowered to `vfmadd` instead
//! of a libm call — selected at run time by [`available`]. No vector code
//! is written by hand: earlier revisions kept an intrinsics twin of every
//! sweep, which this instance matched or beat on every block size measured
//! (CHANGES.md, PR 21) and which was therefore deleted.

use crate::soa::{sweep_pull, Isa, Srt, Trt};
use crate::stats::SweepStats;
use trillium_field::{PdfField, SoaPdfField};
use trillium_lattice::{Relaxation, D3Q19};

/// True if the running CPU supports the AVX2+FMA instance.
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One fused stream–collide TRT sweep, AVX2+FMA instance.
///
/// Runs the portable instance when the CPU lacks AVX2 or FMA, so callers
/// can use this unconditionally as the "SIMD" tier; label measurements
/// with [`crate::BackendKind::resolve`].
pub fn stream_collide_trt(
    src: &SoaPdfField<D3Q19>,
    dst: &mut SoaPdfField<D3Q19>,
    rel: Relaxation,
) -> SweepStats {
    sweep_pull(Isa::Avx2Fma, Trt::new(rel), src, dst, None, &src.shape().interior())
}

/// One fused stream–collide SRT sweep, AVX2+FMA instance (same fallback
/// behavior as [`stream_collide_trt`]).
pub fn stream_collide_srt(
    src: &SoaPdfField<D3Q19>,
    dst: &mut SoaPdfField<D3Q19>,
    rel: Relaxation,
) -> SweepStats {
    sweep_pull(Isa::Avx2Fma, Srt::new(rel), src, dst, None, &src.shape().interior())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa;
    use trillium_field::Shape;
    use trillium_lattice::MAGIC_TRT;

    #[test]
    fn avx_matches_portable_soa() {
        let shape = Shape::new(13, 5, 4, 1); // odd nx exercises the tail
        let mut src = SoaPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.0, [0.02, -0.01, 0.03]);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                let v = src.get(x, y, z, q)
                    + 1e-4 * (((x * 17 + y * 23 + z * 29 + q as i32 * 31) % 19) as f64 - 9.0);
                src.set(x, y, z, q, v);
            }
        }
        let rel = Relaxation::trt_from_tau(0.74, MAGIC_TRT);
        let mut d_avx = SoaPdfField::<D3Q19>::new(shape);
        let mut d_ref = SoaPdfField::<D3Q19>::new(shape);
        let stats = stream_collide_trt(&src, &mut d_avx, rel);
        soa::stream_collide_trt(&src, &mut d_ref, rel);
        assert_eq!(stats.cells, shape.interior_cells() as u64);
        // One row body, two instruction sets: equal to the bit.
        assert_eq!(d_avx.data(), d_ref.data());
    }

    #[test]
    fn avx_srt_matches_portable_soa() {
        let shape = Shape::new(11, 4, 5, 1); // odd nx exercises the tail
        let mut src = SoaPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.0, [0.015, -0.02, 0.01]);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                let v = src.get(x, y, z, q)
                    + 1e-4 * (((x * 5 + y * 11 + z * 17 + q as i32 * 13) % 23) as f64 - 11.0);
                src.set(x, y, z, q, v);
            }
        }
        let rel = trillium_lattice::Relaxation::srt_from_tau(0.88);
        let mut d_avx = SoaPdfField::<D3Q19>::new(shape);
        let mut d_ref = SoaPdfField::<D3Q19>::new(shape);
        stream_collide_srt(&src, &mut d_avx, rel);
        soa::stream_collide_srt(&src, &mut d_ref, rel);
        // One row body, two instruction sets: equal to the bit.
        assert_eq!(d_avx.data(), d_ref.data());
    }

    #[test]
    fn feature_detection_is_consistent() {
        // Must not panic either way; on x86-64 CI machines AVX2 is common
        // but not guaranteed, so only check the call works.
        let _ = available();
    }
}
