#![warn(missing_docs)]
//! trillium-core — a block-structured lattice Boltzmann framework.
//!
//! This crate ties the substrates together into the system described by
//! the SC'13 waLBerla paper: complex-geometry setup, fully distributed
//! block-structured domains, optimized D3Q19 SRT/TRT kernels, and a
//! distributed time loop with ghost-layer communication.
//!
//! # Quick start
//!
//! ```
//! use trillium_core::prelude::*;
//!
//! // A 48³-cell lid-driven cavity split into 2×2×2 blocks on 4 ranks.
//! let scenario = Scenario::lid_driven_cavity(48, 2, 0.05, 0.1);
//! let result = run_distributed(&scenario, 4, 1, 20);
//! assert!(result.steps == 20);
//! assert!((result.mass_drift()).abs() < 1e-9);
//! ```
//!
//! # Architecture
//!
//! * [`blocksim`] — the per-block simulation state (PDF double buffer,
//!   flags, sparse iteration structures, boundary parameters),
//! * [`scenario`] — scenario builders: lid-driven cavity and channel flow
//!   (the paper's §4.2 benchmarks), plus arbitrary signed-distance domains
//!   with colored boundary conditions (§2.3/§4.3),
//! * [`driver`] — the one distributed time loop over a communicator:
//!   per-rank state, the step pipeline (ghost exchange, boundary sweep,
//!   fused stream–collide, buffer swap; synchronous or overlapped), and
//!   the composition of the rebalance and resilience hooks onto it,
//! * [`loadbalance`] — the static [`Balancer`](loadbalance::Balancer)
//!   (Morton, skewed, or graph partitioning — the METIS path of §2.3)
//!   and the block graph it partitions,
//! * [`migrate`] — distributed block migration: serialized PDF + flag
//!   state moves between ranks when the rebalance hook
//!   (`trillium-rebalance`, wired into [`driver`]) fires,
//! * [`pipeline`] — the end-to-end setup pipeline from a signed-distance
//!   domain to the balanced forest every run of it is planned from,
//! * [`recovery`] — the resilience hook: bounded waits, coordinated
//!   forest checkpoints, and rollback recovery under deterministic
//!   fault injection.

pub mod blocksim;
pub mod checkpoint;
pub mod driver;
pub mod loadbalance;
pub mod migrate;
pub mod output;
pub mod pipeline;
pub mod recovery;
pub mod scenario;

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::blocksim::{BlockSim, UpdateScheme};
    pub use crate::driver::{
        drive_rank, plan_run, run_distributed, run_distributed_composed, run_distributed_with,
        run_planned, DriverConfig, RankLoop, RankResult, RebalanceConfig, RunConfig, RunPlan,
        RunResult,
    };
    pub use crate::loadbalance::{block_graph, edge_cut, graph_balance, Balancer};
    pub use crate::migrate::MigrationError;
    pub use crate::pipeline::{setup_domain, DomainSetup};
    pub use crate::recovery::{
        run_distributed_resilient, RankResilience, RecoveryError, ResilienceConfig,
        ResilientRunResult,
    };
    pub use crate::scenario::{KernelChoice, Scenario};
    pub use trillium_comm::{CommError, CrashSpec, FaultConfig, FaultEvent};
    pub use trillium_field::{CellFlags, PdfField};
    pub use trillium_kernels::{BackendKind, BoundaryParams, Collision};
    pub use trillium_lattice::{Relaxation, UnitConverter, D3Q19, MAGIC_TRT};
    pub use trillium_obs::{ObsConfig, RankObs, SpanKind};
}

pub use prelude::*;
