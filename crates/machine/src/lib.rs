#![warn(missing_docs)]
//! Machine models of the paper's two petascale systems (§3) and of the
//! local host.
//!
//! The paper's scaling results are functions of a handful of published
//! machine constants: core counts and clocks, STREAM and concurrent-stream
//! memory bandwidths, peak FLOP rates and the network topology. This crate
//! encodes those constants for SuperMUC (Intel Sandy Bridge, island-based
//! pruned fat tree) and JUQUEEN (Blue Gene/Q, 5-D torus), provides the
//! network time model used by the scaling harness, and measures the actual
//! memory bandwidth of the host this code runs on with a STREAM-like
//! benchmark — the input the roofline model needs for *measured* (as
//! opposed to modeled) kernel comparisons.

pub mod network;
pub mod spec;
pub mod streambench;

pub use network::NetworkModel;
pub use spec::MachineSpec;
pub use streambench::{measure_copy_bandwidth, measure_lbm_bandwidth};
