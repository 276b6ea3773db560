#![warn(missing_docs)]
//! Message-passing substrate: an MPI-like interface over OS threads.
//!
//! The paper runs on MPI across up to 1.8 million threads. This crate
//! provides the equivalent *functional* layer for laptop-scale distributed
//! runs: a [`World`] spawns one thread per rank, each receiving a
//! [`Communicator`] with ranked point-to-point messaging (tagged,
//! buffered, blocking receives) and the collectives the framework needs
//! (barrier, broadcast, reductions, gather). All simulation code is
//! written against `Communicator`, exactly as an MPI code is written
//! against `MPI_Comm` — the distributed block forest, ghost exchange and
//! time loop do not know they are running on threads.
//!
//! [`ghost`] implements the LBM ghost-layer exchange: for every
//! face/edge/corner link only the PDFs that actually cross that boundary
//! are packed (5 per face cell, 1 per edge cell and none across corners
//! for D3Q19), which is the communication-volume optimization the paper's
//! performance model assumes.
//!
//! [`fault`] adds deterministic, seed-driven fault injection (drop,
//! duplication, reordering, fail-stop rank crash) and the runtime grows
//! the failure machinery on top: fallible/timeout receives returning
//! [`CommError`], dead-rank detection instead of silent deadlock, and
//! the control-plane recovery barrier the resilient driver uses.

pub mod collectives;
pub mod fault;
pub mod ghost;
pub mod runtime;

pub use fault::{CrashSpec, FaultConfig, FaultEvent};
pub use ghost::{
    copy_face_local, pack_face, pack_face_sparse, pack_face_with, pdfs_crossing, unpack_face,
    unpack_face_sparse, unpack_face_with, CrossingTable, ExchangePlan, GhostRow, GhostRows,
    PlanBlock,
};
pub use runtime::{CommCounters, CommError, Communicator, World};
