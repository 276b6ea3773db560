#![warn(missing_docs)]
//! Analytic performance models: roofline, ECM, and SMT scaling
//! (paper §4.1).
//!
//! The paper's methodology is *systematic performance engineering*: first
//! bound the kernel with the roofline model (LBM is memory bound: 456
//! bytes per lattice-cell update), then refine with the
//! Execution–Cache–Memory model, which adds in-core execution time and
//! inter-cache transfer times and therefore predicts the multi-core
//! scaling *within* a socket and the dependence on clock frequency. The
//! same models, evaluated with each machine's constants, generate the
//! model curves of Figures 3, 4 and 5 and the per-core kernel rates the
//! scaling simulator consumes.

pub mod ecm;
pub mod kernels;
pub mod roofline;
pub mod smt;

pub use ecm::{EcmModel, CACHELINES_PER_UNIT, CACHELINES_PER_UNIT_INPLACE};
pub use kernels::{KernelTier, TierModel};
pub use roofline::{bytes_per_lup, roofline_mlups};
