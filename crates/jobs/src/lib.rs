#![warn(missing_docs)]
//! trillium-jobs — a multi-tenant simulation job service.
//!
//! The paper's framework assumes one process carries one simulation;
//! this layer turns the re-entrant driver into a *service*: clients
//! submit JSON job specs ([`JobSpec`]), the service admits or rejects
//! them against a `trillium-perfmodel` cost budget, parks them in a
//! priority queue, bin-packs each scheduling round onto disjoint rank
//! cohorts with the block-cost partitioner from `trillium-rebalance`
//! (costs: measured wall seconds per template), runs every job under a `catch_unwind`
//! fault-isolation boundary (one job's crash never touches its
//! neighbors), and streams per-job progress and `trillium-obs` metrics
//! in the `trillium.bench/v1` envelope.
//!
//! ```
//! use trillium_jobs::{JobService, JobSpec, ServiceConfig};
//!
//! let mut svc = JobService::new(ServiceConfig::default());
//! let spec = JobSpec::parse(
//!     r#"{"name": "demo", "family": "cavity", "cells": 16,
//!         "blocks": 2, "steps": 4, "ranks": 2}"#,
//! )
//! .unwrap();
//! svc.submit(spec).unwrap();
//! let outcomes = svc.run_to_completion();
//! assert!(outcomes[0].completed());
//! ```

mod cost;
pub mod service;
pub mod spec;

/// Schema tag of every progress/report envelope this crate emits —
/// identical to `trillium_bench::BENCH_SCHEMA` (duplicated because the
/// bench crate depends on this one, not the other way around).
pub const JOBS_SCHEMA: &str = "trillium.bench/v1";

pub use service::{
    envelope, AdmissionError, JobId, JobOutcome, JobResult, JobService, ServiceConfig,
};
pub use spec::{FaultSpec, GeometryFamily, JobSpec, Schedule, SpecError};
