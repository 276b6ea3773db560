//! Harness spans: one span around every public call a slice makes, kept in
//! memory and written when the slice ends as a chrome `trace_event` file
//! together with the driver's own events (`RunResult::chrome_trace`).
//!
//! Every span carries its name, start, end, the id of the span that
//! caused it and the run id of the slice (`<workload>#<seed>`). Lane 0 is
//! the harness; lanes 1.. are the ranks of the run; lanes 100.. are the
//! lanes of the job service.

use serde_json::{json, Value};
use std::path::PathBuf;
use std::time::Instant;
use trillium_core::driver::RunResult;
use trillium_jobs::JobOutcome;

/// Directory the benchmark writes to: `benchmark/out/` of the checkout
/// the program was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct HarnessSpan {
    name: String,
    lane: u32,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// Span recorder of one slice.
pub struct Tracer {
    workload: String,
    run_id: String,
    origin: Instant,
    spans: Vec<HarnessSpan>,
    open: Vec<usize>,
    /// Driver events, already shifted onto the harness clock.
    driver_events: Vec<Value>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new(workload: &str, seed: u64) -> Self {
        Tracer {
            workload: workload.to_string(),
            run_id: format!("{workload}#{seed}"),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            driver_events: Vec::new(),
        }
    }

    /// Microseconds since the recorder was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &str) -> usize {
        let now = self.now_us();
        self.spans.push(HarnessSpan {
            name: name.to_string(),
            lane: 0,
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id` (and anything left open inside it); returns its
    /// duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
        (self.spans[id].end_us - self.spans[id].start_us) / 1e6
    }

    /// Adds the driver's captured events as children of `run_span`. The
    /// driver stamps its events against an epoch it takes when its own
    /// `plan_run` returns; `plan_run_s`, measured by the harness on the
    /// same scenario, places that epoch on the harness clock.
    pub fn merge_run(&mut self, run: &RunResult, run_span: usize, plan_run_s: f64) {
        let shift = self.spans[run_span].start_us + plan_run_s * 1e6;
        let trace = run.chrome_trace();
        let events = trace.get("traceEvents").and_then(Value::as_array).unwrap_or(&[]);
        for e in events {
            if e.get("ph").and_then(Value::as_str) != Some("X") {
                continue;
            }
            let num = |k: &str| e.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            self.driver_events.push(json!({
                "name": e.get("name").and_then(Value::as_str).unwrap_or(""),
                "cat": "driver",
                "ph": "X",
                "ts": num("ts") + shift,
                "dur": num("dur"),
                "pid": 0,
                "tid": num("tid") as u32 + 1,
                "args": {
                    "run": self.run_id.clone(),
                    "parent": run_span,
                    "step": e.get("args").and_then(|a| a.get("step")).and_then(Value::as_u64).unwrap_or(0)
                }
            }));
        }
    }

    /// Adds one span per job on its service lane, as children of the
    /// innermost open span: dispatch and duration as the service
    /// reported them (`queue_seconds` counts from submission).
    pub fn job_lanes(&mut self, outcomes: &[JobOutcome], submitted_us: f64) {
        let parent = self.open.last().copied();
        for o in outcomes {
            let start_us = submitted_us + o.queue_seconds * 1e6;
            self.spans.push(HarnessSpan {
                name: o.name.clone(),
                lane: 100 + o.lane,
                start_us,
                end_us: start_us + o.run_seconds * 1e6,
                parent,
            });
        }
    }

    /// Writes `out/trace_<workload>.json`.
    pub fn write(&self) -> std::io::Result<()> {
        let mut events: Vec<Value> = vec![json!({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": "harness"}
        })];
        for (id, s) in self.spans.iter().enumerate() {
            events.push(json!({
                "name": s.name.clone(),
                "cat": "harness",
                "ph": "X",
                "ts": s.start_us,
                "dur": s.end_us - s.start_us,
                "pid": 0,
                "tid": s.lane,
                "args": {
                    "run": self.run_id.clone(),
                    "id": id,
                    "parent": s.parent.map_or(Value::Null, |p| json!(p))
                }
            }));
        }
        events.extend(self.driver_events.iter().cloned());
        let doc = json!({"traceEvents": events, "displayTimeUnit": "ms"});
        std::fs::create_dir_all(out_dir())?;
        std::fs::write(out_dir().join(format!("trace_{}.json", self.workload)), doc.to_string())
    }
}
