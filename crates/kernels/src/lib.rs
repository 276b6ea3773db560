#![warn(missing_docs)]
//! LBM compute kernels: the optimization ladder of the SC'13 paper (§4.1)
//! plus boundary handling and the sparse-block strategies of §4.3.
//!
//! # Kernel tiers
//!
//! 1. [`generic`] — a naive, textbook-style stream-pull kernel written for
//!    arbitrary lattice models (the paper's "Generic" curves in Fig. 3).
//! 2. [`d3q19`] — a kernel specialized to the D3Q19 model with fused
//!    streaming and collision and common-subexpression elimination in the
//!    macroscopic-value calculation (the "D3Q19" curves).
//! 3. [`soa`] — the SIMD tier: Structure-of-Arrays layout with the inner
//!    loop split and the update performed in a by-direction rather than
//!    by-cell manner, reducing concurrent load/store streams so the
//!    compiler vectorizes the inner loops (the "SIMD" curves). The row
//!    driver — one contiguous x-run of cells at a time, fed full rows by a
//!    dense block and clipped spans by a sparse one — is written once and
//!    compiled twice: [`soa`] exposes the portable instance, [`avx`] the
//!    one compiled for AVX2+FMA behind runtime feature detection. There
//!    is no hand-written vector code. The portable instance is several
//!    times slower not for lack of it but because a `mul_add` compiled
//!    without the `fma` feature is a call into libm, which also keeps
//!    the loops scalar (8.8 vs 34 MLUP/s on a 96³ block on the
//!    development host); it is the bitwise oracle and what a host without
//!    AVX2+FMA runs.
//!
//! The two AoS tiers implement SRT and TRT; with `λ_e = λ_o` the TRT
//! kernels reduce exactly to SRT. On SoA fields a collision operator only
//! decides what happens to one x-run's streamed-in populations, so every
//! [`Collision`] — SRT, TRT, MRT and MRT-LES ([`mrt`]) — runs through the
//! same two row drivers, pull and in place, in both instances.
//!
//! # Update schemes
//!
//! The two-field (A/B) *stream-pull* pattern is the default: fields store
//! post-collision values; a sweep gathers `f̃_q(x − c_q, t)` from the source
//! field (completing the streaming step), computes moments, collides, and
//! writes post-collision values at `t + Δt` to the destination field.
//! Boundary conditions are realized by a preparatory [`boundary`] sweep
//! that writes the appropriate values into boundary cells of the source
//! field so the compute kernels can pull unconditionally.
//!
//! [`inplace`] adds the single-buffer *AA-pattern* alternative (tier 4;
//! `KernelChoice::InPlace` at the block level): the storage convention
//! alternates between a transport sweep (pull-identical reads, stores
//! rotated one hop downstream into the opposite direction's grid) and a
//! purely cell-local sweep, tracked by `SoaPdfField::parity`. It halves the per-update
//! memory traffic (no write-allocate stream, no second buffer) and is
//! bitwise identical to the resolved pull tier step for step. The
//! per-block boundary link list serves both parities: at odd parity the
//! two storage slots of a link swap roles ([`boundary`]).

pub mod avx;
pub mod backend;
pub mod boundary;
pub mod d3q19;
pub mod generic;
pub mod inplace;
pub mod mrt;
pub mod soa;
pub mod sparse;
pub mod stats;

pub use backend::{Backend, BackendKind, CpuBackend, WorkgroupBackend};
pub use boundary::{apply_boundaries, BoundaryLinks, BoundaryParams};
pub use stats::SweepStats;

/// Which collision operator a kernel run uses; all are parameterized by a
/// [`trillium_lattice::Relaxation`], from which the MRT variants derive
/// their viscosity-linked moment rates.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Collision {
    /// Single-relaxation-time (LBGK).
    Srt,
    /// Two-relaxation-time (Ginzburg et al.).
    Trt,
    /// Multiple-relaxation-time (d'Humières Gram–Schmidt moment basis).
    Mrt,
    /// MRT with the Smagorinsky large-eddy closure (effective τ per cell
    /// from the local non-equilibrium strain rate, `C_s` =
    /// [`trillium_lattice::mrt::CS_SMAGORINSKY`]).
    MrtLes,
}

impl Collision {
    /// All collision operators, in increasing modeling sophistication.
    pub const ALL: [Collision; 4] =
        [Collision::Srt, Collision::Trt, Collision::Mrt, Collision::MrtLes];

    /// Short lowercase label, as used in bench JSON series.
    pub fn label(self) -> &'static str {
        match self {
            Collision::Srt => "srt",
            Collision::Trt => "trt",
            Collision::Mrt => "mrt",
            Collision::MrtLes => "mrt-les",
        }
    }

    /// The Smagorinsky constant the operator runs with (`None` when the
    /// LES closure is off). Centralized so every dispatch path and driver
    /// schedule resolves the same `C_s`.
    pub fn smagorinsky(self) -> Option<f64> {
        match self {
            Collision::MrtLes => Some(trillium_lattice::CS_SMAGORINSKY),
            _ => None,
        }
    }

    /// Whether this operator relaxes in moment space (MRT family).
    pub fn is_mrt(self) -> bool {
        matches!(self, Collision::Mrt | Collision::MrtLes)
    }
}
