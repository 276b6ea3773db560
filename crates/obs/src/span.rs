//! RAII timing spans with per-rank accumulation.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::trace::TraceEvent;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// What a span measures. One accumulator per kind per rank; the kind's
/// [`SpanKind::name`] is the slice label in an exported trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One whole time step (any schedule). Encloses the kinds below.
    Step,
    /// The stream–collide fan-out of a step's window, under either
    /// schedule: every block the window sweeps, each whole. One per
    /// window that has a block to sweep.
    Kernel,
    /// Boundary-condition sweeps.
    Boundary,
    /// Remote ghost-exchange *work*: gathering every remote link's slab
    /// through its exchange plan runs, sending it, posting its receive.
    GhostPack,
    /// Same-rank ghost moves: the walk over the rank's exchange plan.
    GhostCopy,
    /// Ghost-message drain: the receive and scatter of one remote slab,
    /// under either schedule. Overlapped, it also covers the wait for
    /// the message.
    GhostDrain,
    /// A blocked wait of the synchronous drain, while the whole sweep is
    /// still pending: a span of its own, never inside
    /// a [`SpanKind::GhostDrain`]. Zero by construction for the
    /// overlapped schedule.
    Stall,
    /// Coordinated checkpoint: agreement plus snapshot.
    Checkpoint,
    /// Rollback recovery: the recovery barrier plus state restore.
    Recovery,
    /// Rebalance epoch boundary: load all-reduce, planning, migration.
    RebalanceEpoch,
    /// Block migration transfer inside a rebalance round.
    Migration,
    /// Building this rank's blocks before step 0 (flags, boundary links,
    /// PDF allocation and equilibrium fill). Outside [`SpanKind::Step`].
    BuildBlocks,
    /// The conservation reduction over every block (mass, kinetic energy,
    /// PDF finiteness): once before step 0 and once after the last step.
    /// Outside [`SpanKind::Step`].
    Reduce,
    /// The wait for every rank's build, once, before step 0: a rank that
    /// built faster waits here, not in its first exchange. Outside
    /// [`SpanKind::Step`].
    SetupWait,
}

impl SpanKind {
    /// Every kind, in declaration order (== accumulator order).
    pub const ALL: [SpanKind; 14] = [
        SpanKind::Step,
        SpanKind::Kernel,
        SpanKind::Boundary,
        SpanKind::GhostPack,
        SpanKind::GhostCopy,
        SpanKind::GhostDrain,
        SpanKind::Stall,
        SpanKind::Checkpoint,
        SpanKind::Recovery,
        SpanKind::RebalanceEpoch,
        SpanKind::Migration,
        SpanKind::BuildBlocks,
        SpanKind::Reduce,
        SpanKind::SetupWait,
    ];

    /// Number of kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable label used in traces and metric dumps.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Step => "step",
            SpanKind::Kernel => "kernel",
            SpanKind::Boundary => "boundary",
            SpanKind::GhostPack => "ghost_pack",
            SpanKind::GhostCopy => "ghost_copy",
            SpanKind::GhostDrain => "ghost_drain",
            SpanKind::Stall => "stall",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Recovery => "recovery",
            SpanKind::RebalanceEpoch => "rebalance_epoch",
            SpanKind::Migration => "migration",
            SpanKind::BuildBlocks => "build_blocks",
            SpanKind::Reduce => "reduce",
            SpanKind::SetupWait => "setup_wait",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Runtime toggle for the observability layer.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Accumulate per-kind span totals and metrics (the numbers behind
    /// `RankResult` timing fields). On by default; the per-span cost is
    /// two monotonic clock reads.
    pub timing: bool,
    /// Additionally capture one [`TraceEvent`] per span for chrome-trace
    /// export. Off by default (events allocate).
    pub events: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { timing: true, events: false }
    }
}

impl ObsConfig {
    /// Everything off: spans are no-op guards, metrics early-return.
    pub fn off() -> Self {
        ObsConfig { timing: false, events: false }
    }

    /// Timing plus full event capture (chrome-trace export).
    pub fn trace() -> Self {
        ObsConfig { timing: true, events: true }
    }

    /// True when the recorder does anything at all.
    pub fn enabled(&self) -> bool {
        self.timing || self.events
    }
}

/// Per-rank span/metric recorder. Interior-mutable so any number of
/// live guards can share `&Recorder`; not `Sync` — each rank thread
/// owns exactly one (thread-local accumulation without locks).
pub struct Recorder {
    cfg: ObsConfig,
    rank: u32,
    /// Common time origin of all ranks' traces (lane alignment).
    epoch: Instant,
    /// This recorder's creation time — the rank's wall-clock origin.
    start: Instant,
    step: Cell<u64>,
    totals: [Cell<f64>; SpanKind::COUNT],
    counts: [Cell<u64>; SpanKind::COUNT],
    events: RefCell<Vec<TraceEvent>>,
    metrics: MetricsRegistry,
}

impl Recorder {
    /// A recorder whose trace epoch is its own creation time.
    pub fn new(rank: u32, cfg: ObsConfig) -> Self {
        let now = Instant::now();
        Self::with_epoch(rank, cfg, now)
    }

    /// A recorder timestamping trace events relative to `epoch` —
    /// drivers capture one `Instant` before spawning ranks so all lanes
    /// share an origin.
    pub fn with_epoch(rank: u32, cfg: ObsConfig, epoch: Instant) -> Self {
        Recorder {
            cfg,
            rank,
            epoch,
            start: Instant::now(),
            step: Cell::new(0),
            totals: std::array::from_fn(|_| Cell::new(0.0)),
            counts: std::array::from_fn(|_| Cell::new(0)),
            events: RefCell::new(Vec::new()),
            metrics: MetricsRegistry::new(cfg.timing || cfg.events),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> ObsConfig {
        self.cfg
    }

    /// Tags subsequently recorded spans with time step `t`.
    pub fn set_step(&self, t: u64) {
        self.step.set(t);
    }

    /// Opens a span of `kind`; the guard records on drop (or
    /// [`Span::finish`]). No-op when the recorder is disabled.
    pub fn span(&self, kind: SpanKind) -> Span<'_> {
        Span { rec: self, open: self.open(kind) }
    }

    /// Opens a span that does not borrow the recorder, for a span that
    /// must stay open across calls taking the recorder's owner by `&mut`
    /// (a whole time step, a rebalance epoch). Records only when handed
    /// back to [`Recorder::close`]; a dropped [`OpenSpan`] records
    /// nothing.
    pub fn open(&self, kind: SpanKind) -> OpenSpan {
        let start = if self.cfg.enabled() { Some(Instant::now()) } else { None };
        OpenSpan { kind, start }
    }

    /// Closes a span from [`Recorder::open`] and returns its seconds
    /// (0.0 when disabled).
    pub fn close(&self, mut span: OpenSpan) -> f64 {
        match span.start.take() {
            Some(start) => {
                let elapsed = start.elapsed().as_secs_f64();
                self.record(span.kind, start, elapsed);
                elapsed
            }
            None => 0.0,
        }
    }

    /// Seconds since the shared epoch (0.0 when disabled). For derived
    /// quantities like hidden-communication time that subtract two
    /// clock readings.
    pub fn clock(&self) -> f64 {
        if self.cfg.enabled() {
            self.epoch.elapsed().as_secs_f64()
        } else {
            0.0
        }
    }

    /// Wall seconds since this recorder was created (0.0 when disabled).
    pub fn wall(&self) -> f64 {
        if self.cfg.enabled() {
            self.start.elapsed().as_secs_f64()
        } else {
            0.0
        }
    }

    /// Accumulated seconds for `kind` so far.
    pub fn total(&self, kind: SpanKind) -> f64 {
        self.totals[kind.index()].get()
    }

    /// Closed spans of `kind` so far.
    pub fn count(&self, kind: SpanKind) -> u64 {
        self.counts[kind.index()].get()
    }

    /// The metrics registry (counters, gauges, histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Consumes the recorder into an immutable per-rank snapshot.
    pub fn finish(self) -> RankObs {
        let wall = self.wall();
        RankObs {
            rank: self.rank,
            totals: std::array::from_fn(|i| self.totals[i].get()),
            counts: std::array::from_fn(|i| self.counts[i].get()),
            wall,
            events: self.events.into_inner(),
            metrics: self.metrics.snapshot(),
        }
    }

    fn record(&self, kind: SpanKind, start: Instant, elapsed: f64) {
        let i = kind.index();
        self.totals[i].set(self.totals[i].get() + elapsed);
        self.counts[i].set(self.counts[i].get() + 1);
        if self.cfg.events {
            self.events.borrow_mut().push(TraceEvent {
                name: kind.name(),
                step: self.step.get(),
                ts_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
                dur_us: elapsed * 1e6,
            });
        }
    }
}

/// A started, not yet recorded span: the plain data behind [`Span`],
/// closed with [`Recorder::close`].
pub struct OpenSpan {
    kind: SpanKind,
    start: Option<Instant>,
}

/// RAII span guard: measures from creation to drop.
pub struct Span<'r> {
    rec: &'r Recorder,
    open: OpenSpan,
}

impl Span<'_> {
    /// Closes the span now and returns its seconds (0.0 when the
    /// recorder is disabled).
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    /// Records at most once: the start time is taken, so the drop that
    /// follows [`Span::finish`] finds nothing left to record.
    fn close(&mut self) -> f64 {
        let open = OpenSpan { start: self.open.start.take(), ..self.open };
        self.rec.close(open)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Opens a [`Span`] for the rest of the enclosing scope:
/// `span!(rec, Kernel)` is `let _guard = rec.span(SpanKind::Kernel);`.
#[macro_export]
macro_rules! span {
    ($rec:expr, $kind:ident) => {
        let _span_guard = $rec.span($crate::SpanKind::$kind);
    };
}

/// Immutable per-rank observability snapshot, produced by
/// [`Recorder::finish`].
#[derive(Clone, Debug)]
pub struct RankObs {
    /// Rank index (the trace lane).
    pub rank: u32,
    /// Accumulated seconds per [`SpanKind`], indexed by declaration
    /// order (see [`RankObs::total`]).
    pub totals: [f64; SpanKind::COUNT],
    /// Closed spans per kind.
    pub counts: [u64; SpanKind::COUNT],
    /// Wall seconds from recorder creation to [`Recorder::finish`] —
    /// the per-rank budget the category totals must fit into
    /// (`kernel + boundary + comm + stall ≤ wall`).
    pub wall: f64,
    /// Captured trace events (empty unless [`ObsConfig::events`]).
    pub events: Vec<TraceEvent>,
    /// Final metrics snapshot.
    pub metrics: MetricsSnapshot,
}

impl RankObs {
    /// Accumulated seconds for `kind`.
    pub fn total(&self, kind: SpanKind) -> f64 {
        self.totals[kind.index()]
    }

    /// Closed spans of `kind`.
    pub fn count(&self, kind: SpanKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Sums the per-event durations of `kind` in the captured trace,
    /// in seconds — equals [`RankObs::total`] up to float rounding
    /// (the acceptance check that the trace reproduces the timings).
    pub fn trace_total(&self, kind: SpanKind) -> f64 {
        let name = kind.name();
        self.events.iter().filter(|e| e.name == name).map(|e| e.dur_us).sum::<f64>() * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(secs: f64) {
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < secs {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_accumulate_per_kind() {
        let rec = Recorder::new(0, ObsConfig::default());
        for _ in 0..3 {
            let g = rec.span(SpanKind::Kernel);
            spin(1e-4);
            drop(g);
        }
        {
            span!(rec, Boundary);
            spin(1e-4);
        }
        assert_eq!(rec.count(SpanKind::Kernel), 3);
        assert_eq!(rec.count(SpanKind::Boundary), 1);
        assert!(rec.total(SpanKind::Kernel) >= 3e-4);
        assert!(rec.total(SpanKind::Boundary) >= 1e-4);
        assert_eq!(rec.total(SpanKind::Stall), 0.0);
        let obs = rec.finish();
        assert!(obs.wall >= obs.total(SpanKind::Kernel) + obs.total(SpanKind::Boundary));
        assert!(obs.events.is_empty(), "events off by default");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(0, ObsConfig::off());
        let g = rec.span(SpanKind::Kernel);
        spin(1e-4);
        assert_eq!(g.finish(), 0.0);
        rec.metrics().add("comm.messages_sent", 5);
        rec.metrics().observe("driver.step_seconds", 0.1);
        assert_eq!(rec.clock(), 0.0);
        assert_eq!(rec.wall(), 0.0);
        let obs = rec.finish();
        assert_eq!(obs.total(SpanKind::Kernel), 0.0);
        assert_eq!(obs.count(SpanKind::Kernel), 0);
        assert_eq!(obs.metrics.counter("comm.messages_sent"), 0);
        assert!(obs.events.is_empty());
    }

    #[test]
    fn events_reproduce_totals() {
        let rec = Recorder::new(3, ObsConfig::trace());
        rec.set_step(7);
        for _ in 0..4 {
            let g = rec.span(SpanKind::Kernel);
            spin(5e-5);
            drop(g);
        }
        let obs = rec.finish();
        assert_eq!(obs.events.len(), 4);
        assert!(obs.events.iter().all(|e| e.step == 7 && e.name == "kernel"));
        let tol = 1e-9 * obs.events.len() as f64;
        assert!((obs.trace_total(SpanKind::Kernel) - obs.total(SpanKind::Kernel)).abs() <= tol);
    }

    #[test]
    fn shared_epoch_orders_lanes() {
        let epoch = Instant::now();
        let a = Recorder::with_epoch(0, ObsConfig::trace(), epoch);
        {
            span!(a, Step);
            spin(1e-4);
        }
        let b = Recorder::with_epoch(1, ObsConfig::trace(), epoch);
        {
            span!(b, Step);
            spin(1e-4);
        }
        let (oa, ob) = (a.finish(), b.finish());
        assert!(oa.events[0].ts_us < ob.events[0].ts_us, "later span, later timestamp");
    }
}
