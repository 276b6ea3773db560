#![warn(missing_docs)]
//! Unified observability: spans, metrics and chrome-trace export.
//!
//! The paper's whole evaluation (§4) is an exercise in knowing *where
//! time goes* — kernel vs. boundary vs. communication vs. stall — and
//! waLBerla ships a dedicated timing-pool facility for exactly that
//! reason. This crate is the trillium equivalent: one audited
//! implementation replacing the three generations of hand-rolled
//! `Instant::now()` bookkeeping that used to be copy-pasted across the
//! driver schedules.
//!
//! Three layers, one [`Recorder`] per rank:
//!
//! * **Spans** — RAII scopes ([`Recorder::span`], or the [`span!`]
//!   macro) accumulating wall seconds per [`SpanKind`]. The recorder
//!   uses interior mutability, so overlapping guards share a plain
//!   `&Recorder`; accumulation is thread-local by construction (each
//!   rank thread owns its recorder — no locks, no atomics on the hot
//!   path). Top-level categories stay disjoint because their spans do
//!   not nest: a blocked ghost wait is a stall span between two drain
//!   spans, not inside one.
//! * **Metrics** — a typed registry ([`MetricsRegistry`]) of `u64`
//!   counters, `f64` accumulators, gauges and log₂ histograms, keyed by
//!   name. The drivers feed it message/byte counts, fault-injection
//!   tallies, checkpoint/rollback counts, per-block counted costs and the
//!   per-step wall-time histogram.
//! * **Events** — optional per-span capture ([`ObsConfig::events`])
//!   exportable as Chrome `trace_event` JSON via [`chrome_trace`]: one
//!   timeline lane per rank, one slice per span, timestamps on a common
//!   epoch. Open the file in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev). The overlapped schedule's
//!   invariant — no stall slices while runnable work remains — is
//!   *visible in the trace*, not just asserted in tests.
//!
//! Everything is zero-cost when disabled: [`ObsConfig::off`] makes
//! every span a no-op guard (no clock reads, no event pushes) and every
//! metric call an early return.

pub mod metrics;
pub mod span;
pub mod trace;

pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use span::{ObsConfig, OpenSpan, RankObs, Recorder, Span, SpanKind};
pub use trace::{chrome_trace, chrome_trace_string, TraceEvent};
