#![warn(missing_docs)]
//! The scaling-experiment harness: regenerates every figure of the
//! paper's evaluation (§4) from the machine models, the performance
//! models, and real geometric computations on the synthetic coronary
//! tree.
//!
//! Each module produces the data series of one figure as plain structs
//! (serializable to JSON/TSV by the `trillium-bench` binaries):
//!
//! * [`fig1`] — domain partitionings of the coronary tree with a target
//!   of one block per process (nodeboard and full machine),
//! * [`fig3`] — single-node kernel-tier comparison (model series; the
//!   bench binaries add host-measured series),
//! * [`fig4`] — ECM model vs. frequency,
//! * [`fig5`] — SMT levels on a JUQUEEN node,
//! * [`fig6`] — weak scaling on dense regular domains (MLUPS/core and
//!   MPI share for the pure-MPI and hybrid configurations),
//! * [`fig7`] — weak scaling on the vascular geometry (MFLUPS/core and
//!   fluid fraction; real partitioning of the synthetic tree),
//! * [`fig8`] — strong scaling on the vascular geometry (MFLUPS/core and
//!   time steps per second, maximized over block sizes),
//! * [`headline`] — the in-text headline numbers (§4.2/§4.3 and the
//!   §2.2 file-size claims),
//! * [`overlap`] — the communication-hiding term an interior/shell
//!   split would add to the step-time model (an assumption fig 7/8 use),
//! * [`resilience`] — Young/Daly optimal checkpoint interval and waste
//!   fraction versus machine size for the resilient driver.

pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod headline;
pub mod overlap;
pub mod resilience;
pub mod tree;

pub use tree::paper_tree;
