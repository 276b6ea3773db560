//! The multi-tenant job service: admission control, priority queueing,
//! measured-cost lane packing, and fault-isolated execution.
//!
//! ## Pool model
//!
//! The service owns a pool of `lanes × lane_width` rank slots. A *lane*
//! is a disjoint cohort of `lane_width` slots: jobs on different lanes
//! run concurrently with structurally disjoint communicator meshes
//! (each job gets its own `World::connect` mesh), so no message of
//! one job can ever reach another — isolation is a property of the
//! wiring, not of tag discipline.
//!
//! ## Admission
//!
//! [`JobService::submit`] *rejects* jobs that could never run: wider
//! than a lane, or with a [`JobSpec::cost_estimate`] (the
//! `trillium-perfmodel` roofline traffic figure) above the configured
//! budget. Jobs that merely cannot run *now* are *parked* in the
//! priority queue until a lane frees up; a full queue rejects too.
//!
//! ## Packing
//!
//! Each scheduling round considers up to `batch` parked jobs per free
//! lane (highest priority first) and bin-packs them onto the free lanes
//! with [`trillium_rebalance::plan_rebalance`] — the same measured-cost
//! partitioner the runtime rebalancer uses, fed with per-template
//! *measured* wall seconds (EWMA over completed jobs) where available
//! and the admission estimate otherwise. Jobs packed onto one lane run
//! sequentially on it; lanes drain in parallel.
//!
//! ## Isolation
//!
//! Every job runs through `run_planned`, whose cohort launch
//! (`World::run_fallible`) contains a panic in any rank. A panicking rank
//! drops its communicator mid-unwind, which broadcasts a rank-down note
//! to its *own* cohort only: the sibling ranks degrade (comm errors or
//! contained panics, all typed), the job is reported
//! [`JobResult::Failed`], the lane is reclaimed, and every other job —
//! on this lane and all others — is untouched. The re-entrancy and soak
//! tests pin this.

use crate::spec::{JobSpec, Schedule};
use crate::JOBS_SCHEMA;
use serde_json::{json, Value};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trillium_comm::FaultConfig;
use trillium_core::driver::{
    plan_run, run_planned, DriverConfig, RebalanceConfig, RunConfig, RunResult,
};
use trillium_core::recovery::ResilienceConfig;
use trillium_rebalance::{plan_rebalance, BlockRecord, EwmaCostModel, PlanOptions};

/// Service-assigned job handle, unique per service instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Static service configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Disjoint cohorts that can run concurrently.
    pub lanes: u32,
    /// Rank slots per lane; jobs wider than this are rejected.
    pub lane_width: u32,
    /// Parked-queue capacity; submissions beyond it are rejected.
    pub max_parked: usize,
    /// Admission ceiling on [`JobSpec::cost_estimate`] (bytes of
    /// modeled lattice traffic).
    pub cost_budget: f64,
    /// Parked jobs considered per free lane in one packing round.
    pub batch: usize,
}

/// EWMA smoothing for the measured per-template cost model.
const EWMA_ALPHA: f64 = 0.3;
/// Failure-detector patience for resilient jobs.
const STEP_TIMEOUT: Duration = Duration::from_secs(2);
/// Recovery-barrier patience for resilient jobs.
const RECOVERY_TIMEOUT: Duration = Duration::from_secs(20);

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            lanes: 2,
            lane_width: 2,
            max_parked: 4096,
            // Generous default: ~1 TiB of modeled traffic. Admission is
            // about refusing the absurd, not tuning throughput.
            cost_budget: 1e12,
            batch: 8,
        }
    }
}

/// Why a submission was refused.
#[derive(Clone, Debug, PartialEq)]
pub enum AdmissionError {
    /// The job wants more ranks than a lane has slots — it could never
    /// be scheduled.
    TooWide {
        /// Requested cohort width.
        ranks: u32,
        /// Slots per lane.
        lane_width: u32,
    },
    /// The roofline cost estimate exceeds the pool budget.
    TooExpensive {
        /// The job's [`JobSpec::cost_estimate`].
        estimate: f64,
        /// The configured ceiling.
        budget: f64,
    },
    /// The parking queue is at capacity.
    QueueFull {
        /// Jobs currently parked.
        parked: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::TooWide { ranks, lane_width } => {
                write!(f, "job wants {ranks} ranks but lanes have {lane_width} slots")
            }
            AdmissionError::TooExpensive { estimate, budget } => {
                write!(f, "cost estimate {estimate:.3e} exceeds budget {budget:.3e}")
            }
            AdmissionError::QueueFull { parked } => {
                write!(f, "queue full ({parked} jobs parked)")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Terminal state of one job.
#[derive(Clone, Debug)]
pub enum JobResult {
    /// The job ran to the end (possibly through rollback recoveries).
    Completed {
        /// The simulation result, bitwise identical to a solo run of
        /// the same spec.
        run: RunResult,
        /// Rollback recoveries survived (resilient schedule only).
        recoveries: u32,
    },
    /// The job died — a rank panic or an unrecoverable fault — without
    /// taking anything else with it.
    Failed {
        /// Human-readable cause (panic payload or typed recovery
        /// error).
        error: String,
    },
}

/// Everything the service knows about a finished job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Service-assigned id.
    pub id: JobId,
    /// Client-chosen name.
    pub name: String,
    /// Lane the job ran on.
    pub lane: u32,
    /// Seconds from submission to dispatch — the queue latency the
    /// soak harness bounds.
    pub queue_seconds: f64,
    /// Seconds of execution.
    pub run_seconds: f64,
    /// How it ended.
    pub result: JobResult,
}

impl JobOutcome {
    /// True iff the job completed.
    pub fn completed(&self) -> bool {
        matches!(self.result, JobResult::Completed { .. })
    }
}

struct Parked {
    id: JobId,
    seq: u64,
    spec: Arc<JobSpec>,
    submitted: Instant,
}

struct LaneReport {
    lane: u32,
    outcomes: Vec<(Arc<JobSpec>, JobOutcome)>,
}

/// The multi-tenant job service. Single-threaded control plane
/// ([`JobService::submit`] / [`JobService::run_to_completion`]) over a
/// pool of lane worker threads.
pub struct JobService {
    cfg: ServiceConfig,
    next_id: u64,
    parked: Vec<Parked>,
    lane_free: Vec<bool>,
    running_lanes: u32,
    measured: EwmaCostModel,
    done_tx: Sender<LaneReport>,
    done_rx: Receiver<LaneReport>,
    handles: Vec<JoinHandle<()>>,
    outcomes: Vec<JobOutcome>,
    progress: Option<Sender<Value>>,
}

impl JobService {
    /// Creates an idle service over `cfg.lanes × cfg.lane_width` rank
    /// slots.
    pub fn new(cfg: ServiceConfig) -> Self {
        assert!(cfg.lanes > 0 && cfg.lane_width > 0 && cfg.batch > 0);
        let (done_tx, done_rx) = channel();
        JobService {
            lane_free: vec![true; cfg.lanes as usize],
            measured: EwmaCostModel::new(EWMA_ALPHA),
            next_id: 0,
            parked: Vec::new(),
            running_lanes: 0,
            done_tx,
            done_rx,
            handles: Vec::new(),
            outcomes: Vec::new(),
            progress: None,
            cfg,
        }
    }

    /// Attaches a progress stream: every lifecycle event (`queued`,
    /// `started`, `finished`) is sent as a `trillium.bench/v1` envelope
    /// [`Value`]. A dropped receiver is ignored — observation must
    /// never stall the service.
    pub fn with_progress(mut self, sink: Sender<Value>) -> Self {
        self.progress = Some(sink);
        self
    }

    /// Validates and parks a job, or rejects it. Parked jobs wait, in
    /// priority order, for a free lane; rejection is immediate and
    /// final.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, AdmissionError> {
        if spec.ranks > self.cfg.lane_width {
            return Err(AdmissionError::TooWide {
                ranks: spec.ranks,
                lane_width: self.cfg.lane_width,
            });
        }
        let estimate = spec.cost_estimate();
        if estimate > self.cfg.cost_budget {
            return Err(AdmissionError::TooExpensive { estimate, budget: self.cfg.cost_budget });
        }
        if self.parked.len() >= self.cfg.max_parked {
            return Err(AdmissionError::QueueFull { parked: self.parked.len() });
        }
        let id = JobId(self.next_id);
        let seq = self.next_id;
        self.next_id += 1;
        self.emit(json!({
            "event": "queued",
            "job": spec.name.clone(),
            "id": id.0,
            "priority": spec.priority,
            "cost_estimate": estimate
        }));
        self.parked.push(Parked { id, seq, spec: Arc::new(spec), submitted: Instant::now() });
        Ok(id)
    }

    /// Jobs currently parked.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// Drives the service until every submitted job has finished and
    /// returns all outcomes accumulated so far (submission order is not
    /// preserved; sort by [`JobOutcome::id`] if needed). Re-entrant:
    /// more jobs may be submitted afterwards and a further call
    /// continues where this one left off.
    pub fn run_to_completion(&mut self) -> Vec<JobOutcome> {
        loop {
            self.dispatch_round();
            if self.running_lanes == 0 {
                if self.parked.is_empty() {
                    break;
                }
                // Free lanes exist (nothing is running) yet nothing was
                // dispatched: impossible by construction, but never spin.
                continue;
            }
            let report = self.done_rx.recv().expect("lane workers hold the sender");
            self.absorb(report);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        std::mem::take(&mut self.outcomes)
    }

    fn absorb(&mut self, report: LaneReport) {
        self.lane_free[report.lane as usize] = true;
        self.running_lanes -= 1;
        for (spec, outcome) in report.outcomes {
            // Feed the measured-cost model: future packing rounds place
            // this template by observed wall seconds, not the estimate.
            self.measured.update(spec.template_key(), outcome.run_seconds);
            self.outcomes.push(outcome);
        }
    }

    /// Packs parked jobs onto the currently free lanes and launches a
    /// worker per non-empty lane.
    fn dispatch_round(&mut self) {
        let free: Vec<u32> = (0..self.cfg.lanes).filter(|&l| self.lane_free[l as usize]).collect();
        if free.is_empty() || self.parked.is_empty() {
            return;
        }
        // Highest priority first; FIFO within a priority.
        self.parked.sort_by(|a, b| b.spec.priority.cmp(&a.spec.priority).then(a.seq.cmp(&b.seq)));
        let take = (free.len() * self.cfg.batch).min(self.parked.len());
        let round: Vec<Parked> = self.parked.drain(..take).collect();

        // Bin-pack the round onto the free lanes with the measured-cost
        // partitioner. Costs are wall seconds: measured EWMA where a
        // template has history, otherwise the traffic estimate scaled by
        // a nominal 1 GiB/s — the units only have to be consistent
        // within one round.
        let records: Vec<BlockRecord> = round
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let measured = self.measured.cost(p.spec.template_key());
                let cost = if measured > 0.0 { measured } else { p.spec.cost_estimate() / 1e9 };
                BlockRecord {
                    id: p.seq,
                    owner: (i % free.len()) as u32,
                    coords: [0, 0, 0],
                    level: 0,
                    cost: cost.max(1e-9),
                    fluid_cells: p.spec.total_cells(),
                }
            })
            .collect();
        let plan = plan_rebalance(
            records,
            free.len() as u32,
            &PlanOptions { min_ratio: 1.0, ..PlanOptions::default() },
        );
        let mut per_lane: Vec<Vec<Parked>> = (0..free.len()).map(|_| Vec::new()).collect();
        let mut by_seq: std::collections::HashMap<u64, Parked> =
            round.into_iter().map(|p| (p.seq, p)).collect();
        for (rec, &lane) in plan.records.iter().zip(&plan.assignment) {
            if let Some(p) = by_seq.remove(&rec.id) {
                per_lane[lane as usize].push(p);
            }
        }
        debug_assert!(by_seq.is_empty(), "every packed job must land on a lane");

        for (slot, mut jobs) in per_lane.into_iter().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            // Within a lane, honor priority again (the partitioner
            // groups by cost, not urgency).
            jobs.sort_by(|a, b| b.spec.priority.cmp(&a.spec.priority).then(a.seq.cmp(&b.seq)));
            let lane = free[slot];
            self.lane_free[lane as usize] = false;
            self.running_lanes += 1;
            let done = self.done_tx.clone();
            let progress = self.progress.clone();
            self.handles.push(std::thread::spawn(move || run_lane(lane, jobs, progress, done)));
        }
    }

    fn emit(&self, payload: Value) {
        emit_to(&self.progress, payload);
    }
}

/// Wraps a payload in the shared `trillium.bench/v1` envelope (the same
/// shape `trillium-bench` emits, duplicated here because the bench
/// crate sits above this one in the dependency graph).
pub fn envelope(payload: Value) -> Value {
    let mut fields = vec![
        ("schema".to_string(), Value::String(JOBS_SCHEMA.to_string())),
        ("bin".to_string(), Value::String("trillium-jobs".to_string())),
    ];
    match payload {
        Value::Object(obj) => fields.extend(obj),
        other => fields.push(("rows".to_string(), other)),
    }
    Value::Object(fields)
}

fn emit_to(progress: &Option<Sender<Value>>, payload: Value) {
    if let Some(sink) = progress {
        let _ = sink.send(envelope(payload));
    }
}

/// Lane worker: runs its packed jobs sequentially, reporting each one.
fn run_lane(
    lane: u32,
    jobs: Vec<Parked>,
    progress: Option<Sender<Value>>,
    done: Sender<LaneReport>,
) {
    let mut outcomes = Vec::with_capacity(jobs.len());
    for p in jobs {
        let queue_seconds = p.submitted.elapsed().as_secs_f64();
        emit_to(
            &progress,
            json!({
                "event": "started",
                "job": p.spec.name.clone(),
                "id": p.id.0,
                "lane": lane,
                "queue_seconds": queue_seconds
            }),
        );
        let t0 = Instant::now();
        let result = run_job(&p.spec);
        let run_seconds = t0.elapsed().as_secs_f64();
        let (status, error, recoveries, metrics) = match &result {
            JobResult::Completed { run, recoveries } => {
                ("completed", Value::Null, *recoveries, run.metrics().to_json())
            }
            JobResult::Failed { error } => ("failed", Value::String(error.clone()), 0, Value::Null),
        };
        emit_to(
            &progress,
            json!({
                "event": "finished",
                "job": p.spec.name.clone(),
                "id": p.id.0,
                "lane": lane,
                "status": status,
                "error": error,
                "recoveries": recoveries,
                "queue_seconds": queue_seconds,
                "run_seconds": run_seconds,
                "metrics": metrics
            }),
        );
        outcomes.push((
            p.spec.clone(),
            JobOutcome {
                id: p.id,
                name: p.spec.name.clone(),
                lane,
                queue_seconds,
                run_seconds,
                result,
            },
        ));
    }
    // The service may already be gone if the caller dropped it without
    // draining; nothing to do about it here.
    let _ = done.send(LaneReport { lane, outcomes });
}

/// The one place a job's schedule becomes a run configuration: the
/// step schedule plus at most one hook, the fault plan (if any) riding
/// in the resilience part.
fn run_config(spec: &JobSpec) -> RunConfig {
    RunConfig {
        driver: DriverConfig {
            collect_pdfs: spec.collect_pdfs,
            overlap: spec.schedule == Schedule::Overlapped,
            ..DriverConfig::default()
        },
        rebalance: (spec.schedule == Schedule::Rebalanced).then(RebalanceConfig::default),
        resilience: (spec.schedule == Schedule::Resilient).then(|| ResilienceConfig {
            step_timeout: STEP_TIMEOUT,
            recovery_timeout: RECOVERY_TIMEOUT,
            checkpoint_every: 4,
            max_recoveries: match spec.fault {
                Some(f) if !f.recover => 0,
                _ => ResilienceConfig::default().max_recoveries,
            },
            fault: spec.fault.map(|f| {
                let fc = FaultConfig::new(f.seed);
                match f.crash {
                    Some((rank, step)) => fc.with_crash(rank, step),
                    None => fc,
                }
            }),
        }),
    }
}

/// Runs one job on its own freshly wired cohort. The cohort launch
/// ([`run_planned`] on `World::run_fallible`) is the failure-isolation
/// boundary: whatever happens inside — a kernel panic, a poisoned
/// collective, an exhausted recovery budget — comes back as a
/// [`JobResult`], never as an unwind into the lane worker.
fn run_job(spec: &JobSpec) -> JobResult {
    let scenario = spec.to_scenario();
    let plan = plan_run(&scenario, spec.ranks);
    let cfg = run_config(spec);
    match run_planned(&plan, &scenario, spec.threads, spec.steps, &[], &cfg) {
        Ok(run) => JobResult::Completed { recoveries: run.recoveries(), run },
        Err(error) => JobResult::Failed { error: error.to_string() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_core::driver::run_distributed_with;

    fn spec(doc: &str) -> JobSpec {
        JobSpec::parse(doc).expect("test spec parses")
    }

    #[test]
    fn admission_rejects_the_impossible_and_parks_the_rest() {
        let mut svc = JobService::new(ServiceConfig {
            lanes: 1,
            lane_width: 2,
            max_parked: 2,
            cost_budget: 1e9,
            ..ServiceConfig::default()
        });
        assert!(matches!(
            svc.submit(spec(r#"{"name": "wide", "family": "cavity", "ranks": 4}"#)),
            Err(AdmissionError::TooWide { ranks: 4, lane_width: 2 })
        ));
        assert!(matches!(
            svc.submit(spec(
                r#"{"name": "huge", "family": "cavity", "cells": 64, "blocks": 2, "steps": 100000}"#
            )),
            Err(AdmissionError::TooExpensive { .. })
        ));
        svc.submit(spec(r#"{"name": "a", "family": "cavity", "steps": 2}"#)).unwrap();
        svc.submit(spec(r#"{"name": "b", "family": "cavity", "steps": 2}"#)).unwrap();
        assert!(matches!(
            svc.submit(spec(r#"{"name": "c", "family": "cavity", "steps": 2}"#)),
            Err(AdmissionError::QueueFull { parked: 2 })
        ));
        assert_eq!(svc.parked(), 2);
        let outcomes = svc.run_to_completion();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(JobOutcome::completed));
    }

    #[test]
    fn jobs_complete_bitwise_identical_to_solo_runs() {
        let doc = r#"{"name": "j", "family": "cavity", "cells": 16, "blocks": 2,
                      "steps": 8, "ranks": 2, "schedule": "overlapped"}"#;
        let s = spec(doc);
        let solo = run_distributed_with(
            &s.to_scenario(),
            2,
            1,
            8,
            &[],
            DriverConfig { collect_pdfs: true, overlap: true, ..DriverConfig::default() },
        );
        let mut svc = JobService::new(ServiceConfig::default());
        for _ in 0..4 {
            svc.submit(spec(doc)).unwrap();
        }
        let outcomes = svc.run_to_completion();
        assert_eq!(outcomes.len(), 4);
        for o in outcomes {
            match o.result {
                JobResult::Completed { run, .. } => {
                    assert_eq!(run.pdf_dump(), solo.pdf_dump(), "job {} diverged", o.name)
                }
                JobResult::Failed { error } => panic!("job {} failed: {error}", o.name),
            }
        }
    }

    #[test]
    fn a_dying_job_is_contained_and_its_neighbors_finish_clean() {
        let healthy = r#"{"name": "ok", "family": "cavity", "cells": 16, "blocks": 2,
                          "steps": 8, "ranks": 2}"#;
        let doomed = r#"{"name": "doomed", "family": "cavity", "cells": 16, "blocks": 2,
                         "steps": 8, "ranks": 2, "schedule": "resilient",
                         "fault": {"seed": 7, "crash_rank": 1, "crash_step": 3,
                                   "recover": false}}"#;
        let recovering = r#"{"name": "phoenix", "family": "cavity", "cells": 16, "blocks": 2,
                             "steps": 8, "ranks": 2, "schedule": "resilient",
                             "fault": {"seed": 7, "crash_rank": 1, "crash_step": 3,
                                       "recover": true}}"#;
        let solo = run_distributed_with(
            &spec(healthy).to_scenario(),
            2,
            1,
            8,
            &[],
            DriverConfig { collect_pdfs: true, ..DriverConfig::default() },
        );

        let mut svc = JobService::new(ServiceConfig::default());
        svc.submit(spec(healthy)).unwrap();
        svc.submit(spec(doomed)).unwrap();
        svc.submit(spec(recovering)).unwrap();
        svc.submit(spec(healthy)).unwrap();
        let mut outcomes = svc.run_to_completion();
        outcomes.sort_by_key(|o| o.id);
        assert_eq!(outcomes.len(), 4);

        for o in &outcomes {
            match (&o.name[..], &o.result) {
                ("ok", JobResult::Completed { run, .. }) => {
                    assert_eq!(run.pdf_dump(), solo.pdf_dump(), "healthy job diverged")
                }
                ("doomed", JobResult::Failed { error }) => {
                    assert!(
                        error.contains("gave up") || error.contains("unrecoverable"),
                        "doomed job must die a typed death, got: {error}"
                    )
                }
                // The recovering job rolls back and replays — and replay
                // is bitwise identical to the unfaulted run.
                ("phoenix", JobResult::Completed { run, recoveries }) => {
                    assert_eq!(*recoveries, 1);
                    assert_eq!(run.pdf_dump(), solo.pdf_dump(), "recovered job diverged")
                }
                (name, r) => panic!("job {name}: unexpected outcome {r:?}"),
            }
        }
    }

    #[test]
    fn priority_orders_dispatch_and_progress_streams_the_lifecycle() {
        let (tx, rx) = channel();
        let mut svc =
            JobService::new(ServiceConfig { lanes: 1, lane_width: 2, ..ServiceConfig::default() })
                .with_progress(tx);
        let lo = r#"{"name": "lo", "family": "cavity", "steps": 2, "priority": 0}"#;
        let hi = r#"{"name": "hi", "family": "cavity", "steps": 2, "priority": 5}"#;
        svc.submit(spec(lo)).unwrap();
        svc.submit(spec(hi)).unwrap();
        let outcomes = svc.run_to_completion();
        assert_eq!(outcomes.len(), 2);
        drop(svc);

        let events: Vec<Value> = rx.iter().collect();
        for e in &events {
            assert_eq!(e.get("schema").and_then(Value::as_str), Some(JOBS_SCHEMA));
            assert_eq!(e.get("bin").and_then(Value::as_str), Some("trillium-jobs"));
        }
        let started: Vec<&str> = events
            .iter()
            .filter(|e| e.get("event").and_then(Value::as_str) == Some("started"))
            .map(|e| e.get("job").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(started, ["hi", "lo"], "higher priority must dispatch first");
        let finished = events
            .iter()
            .filter(|e| e.get("event").and_then(Value::as_str) == Some("finished"))
            .count();
        assert_eq!(finished, 2);
    }
}
