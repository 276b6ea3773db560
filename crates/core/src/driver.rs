//! The distributed time loop.
//!
//! Each rank owns the blocks assigned to it by the load balancer and runs,
//! per time step: (1) ghost-layer exchange with neighboring blocks through
//! one exchange plan — direct moves between same-rank blocks, messages
//! over the communicator otherwise; (2) the boundary preparatory sweep;
//! (3) the fused stream–collide kernel; buffers swap inside the kernel
//! call. The per-rank split between kernel and communication wall time is
//! recorded, which is how the "% time spent for MPI communication" curves
//! of Fig 6 are produced for real runs.
//!
//! There is one loop: [`RankLoop`] is the per-rank state,
//! [`RankLoop::step`] the step pipeline (synchronous or overlapped),
//! [`RankLoop::finish`] the fold into a [`RankResult`]. Rebalancing and
//! resilience are two optional after-step hooks [`drive_rank`] composes
//! onto it, each present iff its part of the [`RunConfig`] is.
//!
//! All timing goes through the `trillium-obs` span layer: one
//! [`Recorder`] per rank accumulates disjoint per-category totals
//! (kernel, boundary, ghost work, exposed stall), feeds the metrics
//! registry, and — with [`ObsConfig::events`] — captures a per-span
//! event stream exportable as Chrome `trace_event` JSON via
//! [`RunResult::chrome_trace`].

use crate::blocksim::BlockSim;
use crate::migrate::{execute_migrations, MigrationError};
use crate::recovery::{RankResilience, RecoveryError, Resilience, ResilienceConfig};
use crate::scenario::Scenario;
use std::borrow::Cow;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use trillium_blockforest::{
    dir_index, distribute, BlockId, BlockLink, DistributedForest, SetupForest, NEIGHBOR_DIRS,
};
use trillium_comm::{pdfs_crossing, CommError, Communicator, ExchangePlan, FaultEvent, World};
use trillium_field::{CellFlags, FlagOps};
use trillium_kernels::SweepStats;
use trillium_lattice::D3Q19;
use trillium_obs::{ObsConfig, RankObs, Recorder, SpanKind};
use trillium_rebalance::plan::{decode_records, encode_records};
use trillium_rebalance::{plan_rebalance, BlockRecord, PlanOptions};

/// Per-rank outcome of a run.
#[derive(Clone, Debug)]
pub struct RankResult {
    /// Rank index.
    pub rank: u32,
    /// Number of local blocks.
    pub num_blocks: usize,
    /// Accumulated kernel sweep statistics.
    pub stats: SweepStats,
    /// Wall time in the compute kernels (seconds): the `Kernel` spans,
    /// one stream–collide fan-out per window that had a block to sweep.
    pub kernel_time: f64,
    /// Wall time of ghost-exchange *work*: same-rank field-to-field moves,
    /// gathering, sending, and draining remote messages (receive + scatter).
    /// A blocked wait before the window is [`RankResult::ghost_stall_time`]
    /// instead, a span of its own, so the categories sum without double
    /// counting.
    pub comm_time: f64,
    /// Wall time in the boundary sweeps.
    pub boundary_time: f64,
    /// Seconds of compute executed while ghost messages were still in
    /// flight — the communication actually *hidden* by the overlapped
    /// schedule: its window before the drain, which sweeps the blocks
    /// that posted no receive, timed when another block did. Zero for
    /// the synchronous path, and for an overlapped rank whose blocks all
    /// wait on a message.
    pub overlap_hidden: f64,
    /// Seconds blocked in a ghost receive *while runnable local compute
    /// was still pending* — the exposed stall the overlapped schedule
    /// removes. The synchronous schedule drains with the entire
    /// stream-collide sweep still undone, so every blocked wait counts —
    /// the drain takes messages in arrival order and waits only when no
    /// posted receive has one. The overlapped schedule only blocks once
    /// every block that waits on no message has taken its whole step — the
    /// rest need the messages — so this is zero by construction; its
    /// residual wait is neighbor imbalance, accounted in
    /// [`RankResult::comm_time`]. This definition stays
    /// meaningful on an oversubscribed emulation host, where raw
    /// blocked-recv wall time measures the thread scheduler rather than
    /// the network. Disjoint from [`RankResult::comm_time`].
    pub ghost_stall_time: f64,
    /// Total fluid mass before the first step.
    pub mass_initial: f64,
    /// Total fluid mass after the last step.
    pub mass_final: f64,
    /// Total fluid kinetic energy (½ρ|u|², summed over fluid cells)
    /// before the first step.
    pub energy_initial: f64,
    /// Total fluid kinetic energy after the last step.
    pub energy_final: f64,
    /// Momentum-exchange force on the boundary cells matched by
    /// [`DriverConfig::force_mask`], one `(step, packed block id, force)`
    /// per local block and completed step, in step order. Empty when no
    /// mask is set. Blocks migrate, so a rank's records are part of the
    /// signal: [`RunResult::force_series`] folds them into it.
    pub force_series: Vec<(u64, u64, [f64; 3])>,
    /// Probed velocities: global cell → velocity, for the probes owned by
    /// this rank.
    pub probes: Vec<([i64; 3], [f64; 3])>,
    /// Final interior PDFs per local block (`packed block id` → values in
    /// interior iteration order × 19), only when
    /// [`DriverConfig::collect_pdfs`] is set; empty otherwise.
    pub pdfs: Vec<(u64, Vec<f64>)>,
    /// True if any local block contains non-finite PDFs after the run.
    pub has_nan: bool,
    /// Wall seconds of this rank's whole time loop, measured once per
    /// rank by the span layer — the budget the disjoint categories fit
    /// into: `kernel_time + boundary_time + comm_time +
    /// ghost_stall_time ≤ wall_time` (pinned by
    /// `tests/observability.rs`). Zero when the recorder is disabled.
    pub wall_time: f64,
    /// Per-rank observability snapshot: span totals and counts, the
    /// metrics registry (message/byte counters, step-time histogram,
    /// …), and — under [`ObsConfig::events`] — the captured trace
    /// events. `None` only when [`ObsConfig::off`] disabled recording.
    pub obs: Option<RankObs>,
    /// Runtime-rebalance accounting, present iff the run had a rebalance
    /// hook ([`RunConfig::rebalance`]).
    pub rebalance: Option<RebalanceReport>,
    /// Resilience accounting, present iff the run had a resilience hook
    /// ([`RunConfig::resilience`]).
    pub resilience: Option<RankResilience>,
}

impl RankResult {
    /// Total attributed busy seconds: the four disjoint categories
    /// (kernel, communication work, boundary, exposed stall) summed —
    /// the denominator of the fraction metrics.
    pub fn busy_time(&self) -> f64 {
        self.kernel_time + self.comm_time + self.boundary_time + self.ghost_stall_time
    }
}

/// Configuration of the runtime load balancer (see `trillium-rebalance`).
#[derive(Clone, Copy, Debug)]
pub struct RebalanceConfig {
    /// Steps per monitoring epoch: the global load ratio of the counted
    /// block costs is taken (one fused min/max/sum all-reduce) every
    /// `every_n_steps` steps.
    pub every_n_steps: u64,
    /// Max/avg load ratio above which an epoch plans a migration.
    /// `f64::INFINITY` turns the subsystem into a pure monitor: ratios
    /// are recorded but nothing ever migrates.
    pub threshold: f64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self { every_n_steps: 10, threshold: 1.15 }
    }
}

impl RebalanceConfig {
    /// A configuration that records the imbalance history but never
    /// migrates — the baseline for ablations.
    pub fn monitor_only() -> Self {
        Self { threshold: f64::INFINITY, ..Self::default() }
    }
}

/// One monitoring epoch as seen by every rank (the ratio is global).
#[derive(Clone, Copy, Debug)]
pub struct EpochReport {
    /// Time step at the end of the epoch.
    pub step: u64,
    /// Max/avg ratio of the counted load across ranks at that step.
    pub ratio: f64,
    /// Blocks migrated (globally) at this epoch boundary.
    pub migrated: u32,
}

/// Per-rank rebalance accounting over a whole run.
#[derive(Clone, Debug, Default)]
pub struct RebalanceReport {
    /// One entry per monitoring epoch.
    pub epochs: Vec<EpochReport>,
    /// Blocks this rank received from other ranks.
    pub migrations_in: u32,
    /// Blocks this rank sent to other ranks.
    pub migrations_out: u32,
    /// Number of migration rounds executed.
    pub rebalances: u32,
    /// Final cost per local block: `(packed_id, cells swept per step,
    /// fluid_cells)` — the cost the planner consumes.
    pub final_costs: Vec<(u64, f64, u64)>,
}

/// Whole-run outcome: per-rank results plus global accounting.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Steps executed.
    pub steps: u64,
    /// Per-rank results, ordered by rank.
    pub ranks: Vec<RankResult>,
}

impl RunResult {
    /// Relative drift of the global fluid mass (0.0 if there was none).
    pub fn mass_drift(&self) -> f64 {
        let m0: f64 = self.ranks.iter().map(|r| r.mass_initial).sum();
        let m1: f64 = self.ranks.iter().map(|r| r.mass_final).sum();
        if m0 == 0.0 {
            return 0.0;
        }
        (m1 - m0) / m0
    }

    /// Aggregated sweep statistics.
    pub fn total_stats(&self) -> SweepStats {
        let mut s = SweepStats::default();
        for r in &self.ranks {
            s.merge(r.stats);
        }
        s
    }

    /// All probe results, sorted by global cell coordinate.
    pub fn probes(&self) -> Vec<([i64; 3], [f64; 3])> {
        let mut all: Vec<_> = self.ranks.iter().flat_map(|r| r.probes.iter().cloned()).collect();
        all.sort_by_key(|(c, _)| *c);
        all
    }

    /// All collected block PDF dumps, sorted by packed block id (empty
    /// unless the run used [`DriverConfig::collect_pdfs`]). Two runs of
    /// the same problem are PDF-level bitwise identical iff their dumps
    /// compare equal.
    pub fn pdf_dump(&self) -> Vec<(u64, Vec<f64>)> {
        let mut all: Vec<_> = self.ranks.iter().flat_map(|r| r.pdfs.iter().cloned()).collect();
        all.sort_by_key(|(id, _)| *id);
        all
    }

    /// Global fluid kinetic energy before the first step.
    pub fn kinetic_energy_initial(&self) -> f64 {
        self.ranks.iter().map(|r| r.energy_initial).sum()
    }

    /// Global fluid kinetic energy after the last step.
    pub fn kinetic_energy_final(&self) -> f64 {
        self.ranks.iter().map(|r| r.energy_final).sum()
    }

    /// Per-step momentum-exchange force on the masked boundary cells,
    /// summed over every block; index = time step. Empty unless the run
    /// set [`DriverConfig::force_mask`]. Each step folds its blocks in
    /// packed-id order, whichever rank swept them, so the series does not
    /// depend on the decomposition, the schedule or migrations.
    pub fn force_series(&self) -> Vec<[f64; 3]> {
        let mut all: Vec<_> =
            self.ranks.iter().flat_map(|r| r.force_series.iter().copied()).collect();
        all.sort_unstable_by_key(|&(t, id, _)| (t, id));
        let steps = all.last().map_or(0, |&(t, ..)| t as usize + 1);
        let mut out = vec![[0.0; 3]; steps];
        for (t, _, f) in all {
            for d in 0..3 {
                out[t as usize][d] += f[d];
            }
        }
        out
    }

    /// Total seconds of compute hidden behind in-flight ghost messages,
    /// summed over ranks (zero for synchronous runs).
    pub fn overlap_hidden(&self) -> f64 {
        self.ranks.iter().map(|r| r.overlap_hidden).sum()
    }

    /// Fraction of busy time spent blocked on ghost messages while
    /// runnable local compute was still pending (max over ranks) — see
    /// [`RankResult::ghost_stall_time`]. The overlap ablation's headline:
    /// the synchronous schedule exposes its whole receive wait as stall,
    /// the overlapped schedule never blocks while work remains.
    /// Returns 0.0 (not NaN) for trivially short runs whose measured
    /// busy time is zero — including runs with the recorder disabled.
    pub fn stall_fraction(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| {
                let total = r.busy_time();
                if total > 0.0 {
                    r.ghost_stall_time / total
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }

    /// Fraction of total wall time spent in communication (max over
    /// ranks, the value that limits scaling). A rank that swept no cell
    /// is left out: it never held a block, so it exchanged nothing either,
    /// its whole busy time is the empty pack phase and its fraction 1. A
    /// rank that swept and then migrated every block away stays in.
    pub fn comm_fraction(&self) -> f64 {
        self.ranks
            .iter()
            .filter(|r| r.stats.cells > 0)
            .map(|r| {
                let total = r.busy_time();
                if total > 0.0 {
                    r.comm_time / total
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }

    /// True if any rank observed non-finite values.
    pub fn has_nan(&self) -> bool {
        self.ranks.iter().any(|r| r.has_nan)
    }

    /// Imbalance history `(step, max/avg ratio)`, one entry per
    /// monitoring epoch. Empty for runs without rebalancing. The ratio is
    /// a global quantity, identical on every rank, so rank 0's copy is
    /// authoritative.
    pub fn imbalance_history(&self) -> Vec<(u64, f64)> {
        self.ranks
            .first()
            .and_then(|r| r.rebalance.as_ref())
            .map(|rb| rb.epochs.iter().map(|e| (e.step, e.ratio)).collect())
            .unwrap_or_default()
    }

    /// The load ratio of the last monitoring epoch, if any.
    pub fn final_load_ratio(&self) -> Option<f64> {
        self.ranks
            .first()
            .and_then(|r| r.rebalance.as_ref())
            .and_then(|rb| rb.epochs.last())
            .map(|e| e.ratio)
    }

    /// Total blocks that changed owner over the run.
    pub fn total_migrations(&self) -> u32 {
        self.ranks.iter().filter_map(|r| r.rebalance.as_ref()).map(|rb| rb.migrations_in).sum()
    }

    /// Number of migration rounds (identical on all ranks).
    pub fn rebalance_count(&self) -> u32 {
        self.ranks.first().and_then(|r| r.rebalance.as_ref()).map(|rb| rb.rebalances).unwrap_or(0)
    }

    /// Rollback recoveries of the run (max over ranks; identical on all
    /// in a completed run). Zero without a resilience hook.
    pub fn recoveries(&self) -> u32 {
        self.resilience().map(|r| r.recoveries).max().unwrap_or(0)
    }

    /// Total steps re-executed across ranks due to rollbacks.
    pub fn replayed_steps(&self) -> u64 {
        self.resilience().map(|r| r.replayed_steps).sum()
    }

    /// Checkpoints taken (rank 0's count, the initial state included).
    pub fn checkpoints(&self) -> u32 {
        self.resilience().next().map(|r| r.checkpoints).unwrap_or(0)
    }

    /// The whole run's failure trace as `(rank, event)`, rank-ordered.
    /// Two runs with the same scenario and fault seed produce identical
    /// traces — the deterministic-simulation property the fault layer
    /// guarantees.
    pub fn failure_trace(&self) -> Vec<(u32, FaultEvent)> {
        self.resilience()
            .flat_map(|r| r.fault_events.iter().map(move |e| (r.rank, e.clone())))
            .collect()
    }

    fn resilience(&self) -> impl Iterator<Item = &RankResilience> {
        self.ranks.iter().filter_map(|r| r.resilience.as_ref())
    }

    /// Critical-path *work* seconds: the maximum over ranks of the time
    /// spent computing (kernel + boundary sweeps), doing ghost-exchange
    /// work, and running rebalance epochs (all-reduce, planning,
    /// migration). Excludes time blocked in `recv` waiting on neighbors:
    /// under a rebalance hook the exchange work is the `GhostPack` and
    /// `GhostCopy` spans and the epochs are the `RebalanceEpoch` spans.
    ///
    /// On a real machine wall clock ≈ this maximum, because ranks run
    /// concurrently and the waiting happens *in parallel with* the slow
    /// rank's work. In this emulation harness ranks are time-sliced
    /// threads, so raw per-rank elapsed time (which includes the
    /// blocked waits) would count every other rank's work as "wait"
    /// and hide imbalance entirely. The span layer keeps blocked time
    /// out of the categories summed here — [`RankResult::comm_time`]
    /// is exchange *work* and stall is ledgered separately — so for
    /// runs without a rebalance report kernel + comm + boundary is
    /// pure attributed work, with nothing double-counted (the
    /// per-rank budget invariant is pinned in `tests/observability.rs`).
    pub fn work_wall(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| match (&r.rebalance, &r.obs) {
                (Some(_), Some(obs)) => {
                    let span = |kind| obs.total(kind);
                    r.kernel_time
                        + r.boundary_time
                        + (span(SpanKind::GhostPack) + span(SpanKind::GhostCopy))
                        + span(SpanKind::RebalanceEpoch)
                }
                _ => r.kernel_time + r.comm_time + r.boundary_time,
            })
            .fold(0.0f64, f64::max)
    }

    /// The run's Chrome `trace_event` JSON: one timeline lane per rank,
    /// one slice per captured span. Meaningful when the run used
    /// [`ObsConfig::events`] (without event capture the timeline is
    /// empty, lanes only). Write it to a file and open it in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self) -> serde_json::Value {
        trillium_obs::chrome_trace(self.ranks.iter().filter_map(|r| r.obs.as_ref()))
    }

    /// All ranks' metrics merged into one snapshot: counters and
    /// accumulators summed, gauges last-write-wins, histograms pooled.
    pub fn metrics(&self) -> trillium_obs::MetricsSnapshot {
        let mut out = trillium_obs::MetricsSnapshot::default();
        for r in &self.ranks {
            if let Some(obs) = &r.obs {
                out.merge(&obs.metrics);
            }
        }
        out
    }
}

/// How the distributed time loop schedules ghost exchange and compute.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverConfig {
    /// Overlap ghost communication with compute: every block that posted
    /// no receive takes its whole step while the messages are in flight,
    /// before the drain; the blocks that did take theirs after it (see
    /// [`RankLoop::step`]). No block's sweep is split. Off by default; the
    /// synchronous path is the bitwise reference the overlapped path must
    /// reproduce exactly (pinned by `overlap_matches_sync_bitwise`).
    pub overlap: bool,
    /// Dump every block's final interior PDFs into
    /// [`RankResult::pdfs`] — the raw data for PDF-level equivalence
    /// tests. Off by default (the dump is large).
    pub collect_pdfs: bool,
    /// Observability toggle: timing on / event capture off by default;
    /// [`ObsConfig::off`] makes every span a no-op (the ≤3%-overhead
    /// baseline), [`ObsConfig::trace`] additionally captures the
    /// chrome-trace event stream.
    pub obs: ObsConfig,
    /// When set, measure the per-step momentum-exchange force on every
    /// boundary cell whose flags intersect this mask (e.g.
    /// `CellFlags::OBSTACLE` for the cylinder lift/drag signal) into
    /// [`RankResult::force_series`]. Forces are read from the pre-sweep
    /// populations of each block, after its boundary sweep and before its
    /// stream–collide, in whichever window sweeps it, and recorded per
    /// block, so every decomposition, schedule and update scheme gives
    /// bitwise the same [`RunResult::force_series`].
    pub force_mask: Option<CellFlags>,
}

impl DriverConfig {
    /// The overlapped schedule.
    pub fn overlapped() -> Self {
        DriverConfig { overlap: true, ..Default::default() }
    }

    /// The same configuration with chrome-trace event capture on.
    pub fn with_trace(mut self) -> Self {
        self.obs = ObsConfig::trace();
        self
    }
}

/// How a run executes: the step schedule plus the two optional
/// after-step hooks — three independent choices; a hook exists iff its
/// part is `Some`.
#[derive(Clone, Debug, Default)]
pub struct RunConfig {
    /// The step schedule and what the run records.
    pub driver: DriverConfig,
    /// Runtime load balancing: counted per-block costs, migration.
    pub rebalance: Option<RebalanceConfig>,
    /// Bounded waits, coordinated checkpoints and rollback recovery.
    pub resilience: Option<ResilienceConfig>,
}

/// Message tag for a ghost message destined for block `dst` arriving from
/// its neighbor in direction `d` (receiver perspective). The low bits
/// carry the direction; bit 5 carries the *step parity*, so a fast
/// neighbor's step-`t+1` message can never be confused with a still
/// outstanding step-`t` message of the same link while the overlapped
/// drain is in progress. (FIFO per `(from, tag)` already orders same-tag
/// messages — see `fifo_preserved_through_pending_buffer` in
/// `trillium-comm` — the parity bit makes the separation structural.)
pub(crate) fn ghost_tag(dst: BlockId, d: [i8; 3], parity: u64) -> u64 {
    let packed = dst.pack();
    assert!(packed < (1 << 42), "block ID too large for ghost tags");
    (packed << 6) | ((parity & 1) << 5) | dir_index(d) as u64
}

/// Everything a per-rank worker needs to join one distributed run: the
/// balanced setup forest — the one hand-over between set-up and run —
/// one distributed view per rank, and the shared trace epoch. Built once
/// by whoever launches the cohort ([`run_planned`], or a multi-tenant
/// scheduler that ships the plan to pooled rank workers), then shared
/// read-only across them.
///
/// Nothing here is process-global: each plan belongs to exactly one
/// run, so any number of runs can be planned and driven concurrently
/// in one process.
pub struct RunPlan {
    /// The balanced setup forest (cloned by a rank at its first
    /// migration; from then on its copy tracks ownership).
    pub forest: SetupForest,
    /// Per-rank block views, indexed by rank.
    pub views: Vec<DistributedForest>,
    /// Common time origin for every rank's recorder, so the run's trace
    /// lanes line up.
    pub epoch: Instant,
}

impl RunPlan {
    /// The plan of a run on `forest` as balanced — by a scenario's
    /// balancer ([`plan_run`]) or by an earlier set-up whose forest file
    /// (`trillium_blockforest::file`) was loaded. The file does not
    /// carry periodicity: restore it with `SetupForest::with_periodic`
    /// before planning a periodic scenario.
    ///
    /// # Panics
    ///
    /// If the forest is unbalanced or refined (see
    /// [`trillium_blockforest::distribute`]).
    pub fn from_forest(forest: SetupForest) -> Self {
        let views = distribute(&forest);
        RunPlan { forest, views, epoch: Instant::now() }
    }

    /// Why this plan cannot drive `scenario` on `world_size` ranks, if it
    /// cannot: a forest from another set-up must fail before the first
    /// message, not as an index panic or a hang in the ghost exchange.
    fn mismatch(&self, scenario: &Scenario, world_size: u32) -> Option<&'static str> {
        if self.forest.num_processes != world_size {
            Some("number of ranks")
        } else if self.forest.cells_per_block != scenario.cells {
            Some("cells per block")
        } else if self.forest.periodic != scenario.periodic {
            Some("periodicity")
        } else {
            None
        }
    }
}

/// Plans a distributed run of `scenario` on `num_procs` ranks from the
/// scenario's own balanced forest. The returned plan feeds
/// [`run_planned`], or [`drive_rank`] — one call per rank, on
/// communicators from `World::connect`.
pub fn plan_run(scenario: &Scenario, num_procs: u32) -> RunPlan {
    RunPlan::from_forest(scenario.make_forest(num_procs))
}

/// Runs one rank of a distributed simulation on a caller-provided
/// communicator — the one time loop, and the re-entrant per-rank entry
/// point behind every `run_distributed_*`. The communicator decides
/// which rank this is; the plan must have been built for its world
/// size. Safe to invoke any number of times concurrently in one
/// process, one cohort per plan. A plan that does not fit the world
/// size or the scenario is [`RecoveryError::PlanMismatch`].
///
/// Before step 0 the ranks wait for each other's build
/// ([`Communicator::await_cohort`], under [`SpanKind::SetupWait`]); a
/// peer that died during its build ends the wait as
/// [`RecoveryError::Comm`]. Per step: [`RankLoop::step`], the rebalance
/// hook, the resilience hook. Under a resilience hook every blocking
/// receive is bounded by
/// [`ResilienceConfig::step_timeout`] and a [`CommError`] anywhere rolls
/// the cohort back; without one it ends the run as
/// [`RecoveryError::Comm`]. Fault plans travel with the communicator
/// (`World::connect`), so [`ResilienceConfig::fault`] is not read here.
pub fn drive_rank(
    comm: Communicator,
    plan: &RunPlan,
    scenario: &Scenario,
    threads_per_rank: usize,
    steps: u64,
    probes: &[[i64; 3]],
    cfg: &RunConfig,
) -> Result<RankResult, RecoveryError> {
    let rank = comm.rank();
    if let Some(what) = plan.mismatch(scenario, comm.size()) {
        return Err(RecoveryError::PlanMismatch { rank, what });
    }
    let mut lp = RankLoop::new(comm, plan, scenario, threads_per_rank, cfg.driver);
    let mut rebalance = cfg.rebalance.map(Rebalancer::new);
    let mut resilience = cfg.resilience.as_ref().map(|rc| Resilience::new(rc, &lp));
    let deadline = cfg.resilience.as_ref().map(|rc| rc.step_timeout);
    lp.comm.set_collective_timeout(deadline);
    let wait = lp.rec.open(SpanKind::SetupWait);
    let built = lp.comm.await_cohort();
    lp.rec.close(wait);
    built.map_err(|error| RecoveryError::Comm { rank, error })?;

    let mut t: u64 = 0;
    // The pending clause is load-bearing: a failure at the *final*
    // agreement (t already == steps) must loop this rank back into the
    // recovery barrier — exiting would strand the rolled-back peers there.
    while t < steps || resilience.as_ref().is_some_and(|r| r.pending) {
        if let Some(res) = &mut resilience {
            // A fail-stop crash scheduled for this step fires before any
            // sends: `crash_due` broadcasts the failure notes and the
            // victim recovers like everyone else — modeling the
            // replacement process restarted from the pool.
            if res.pending || lp.comm.crash_due(t) {
                let span = lp.rec.open(SpanKind::Recovery);
                let restored = res.rollback(&mut lp, t);
                lp.rec.close(span);
                t = restored?;
                if let Some(rb) = &mut rebalance {
                    rb.rolled_back(t);
                }
                continue;
            }
        }

        // The step and the rebalance hook share the `Step` span. Failed
        // steps spend real time too, so they land in the histogram.
        lp.rec.set_step(t);
        let span = lp.rec.open(SpanKind::Step);
        let mut stepped = lp.step(t, deadline).map_err(MigrationError::Comm);
        if let (Ok(()), Some(rb)) = (&stepped, &mut rebalance) {
            stepped = rb.after_step(&mut lp, t + 1, deadline);
        }
        lp.rec.metrics().observe("driver.step_seconds", lp.rec.close(span));
        if stepped.is_ok() {
            t += 1;
            if let Some(res) = &mut resilience {
                stepped = res.after_step(&mut lp, t, steps).map_err(MigrationError::Comm);
            }
        }
        match (stepped, &mut resilience) {
            (Ok(()), _) => {}
            // The torn state is discarded by the rollback; peers see their
            // next timeout classified as Interrupted.
            (Err(MigrationError::Comm(_)), Some(res)) => {
                lp.comm.request_recovery();
                res.pending = true;
            }
            (Err(MigrationError::Comm(error)), None) => {
                return Err(RecoveryError::Comm { rank, error })
            }
            (Err(error), _) => return Err(RecoveryError::Migration { rank, error }),
        }
    }

    let rebalance = rebalance.map(|rb| rb.finish(&lp));
    let resilience = resilience.map(|res| res.finish(&lp));
    Ok(lp.finish(probes, rebalance, resilience))
}

/// Runs `scenario` on the ranks (threads) of `plan` with
/// `threads_per_rank`-fold block parallelism inside each rank, for
/// `steps` time steps, under any composition of schedule and hooks —
/// the entry every `run_distributed_*` ends in. `probes` are global
/// cells whose final velocities are reported by whichever rank owns them
/// at the end. [`ResilienceConfig::fault`], if set, is installed on
/// every rank.
///
/// Terminal conditions come back as [`RecoveryError`], the lowest-ranked
/// report when several ranks fail together (they usually do: a dead
/// peer and a recovery are both global events). That includes a panic
/// inside a rank ([`RecoveryError::RankPanicked`]): the cohort is the
/// failure-isolation boundary, nothing unwinds into the caller.
pub fn run_planned(
    plan: &RunPlan,
    scenario: &Scenario,
    threads_per_rank: usize,
    steps: u64,
    probes: &[[i64; 3]],
    cfg: &RunConfig,
) -> Result<RunResult, RecoveryError> {
    let num_procs = plan.forest.num_processes;
    let f =
        |comm: Communicator| drive_rank(comm, plan, scenario, threads_per_rank, steps, probes, cfg);
    let fault = cfg.resilience.as_ref().and_then(|rc| rc.fault.clone());
    let ranks = World::run_fallible(num_procs, fault, f)
        .into_iter()
        .zip(0..)
        .map(|(r, rank)| {
            r.unwrap_or_else(|message| Err(RecoveryError::RankPanicked { rank, message }))
        })
        .collect::<Result<_, _>>()?;
    Ok(RunResult { steps, ranks })
}

/// [`run_planned`] on the scenario's own plan for `num_procs` ranks.
pub fn run_distributed_composed(
    scenario: &Scenario,
    num_procs: u32,
    threads_per_rank: usize,
    steps: u64,
    probes: &[[i64; 3]],
    cfg: &RunConfig,
) -> Result<RunResult, RecoveryError> {
    run_planned(&plan_run(scenario, num_procs), scenario, threads_per_rank, steps, probes, cfg)
}

/// Runs `scenario` under the given [`DriverConfig`] with no hooks. See
/// [`run_distributed_composed`].
///
/// # Panics
///
/// This signature predates the typed error and stays infallible, so a
/// dead peer's [`RecoveryError::Comm`] (or a rank's own panic, reported
/// as [`RecoveryError::RankPanicked`]) becomes a panic here — the one
/// place the time loop converts an error into one.
pub fn run_distributed_with(
    scenario: &Scenario,
    num_procs: u32,
    threads_per_rank: usize,
    steps: u64,
    probes: &[[i64; 3]],
    cfg: DriverConfig,
) -> RunResult {
    let cfg = RunConfig { driver: cfg, ..RunConfig::default() };
    run_distributed_composed(scenario, num_procs, threads_per_rank, steps, probes, &cfg)
        .unwrap_or_else(|e| panic!("run without a resilience hook failed: {e}"))
}

/// Runs `scenario` with the default (synchronous) schedule and no
/// probes. See [`run_distributed_with`].
pub fn run_distributed(
    scenario: &Scenario,
    num_procs: u32,
    threads_per_rank: usize,
    steps: u64,
) -> RunResult {
    run_distributed_with(scenario, num_procs, threads_per_rank, steps, &[], DriverConfig::default())
}

/// Metric name of the hidden-communication accumulator (seconds of
/// compute executed while ghost messages were in flight).
const M_OVERLAP_HIDDEN: &str = "driver.overlap_hidden_seconds";

/// One rank's time-loop state: everything a step reads or writes, built
/// once per run and lent to the hooks between steps. `blocks`, `view` and
/// `plan` always describe the same blocks in the same order.
pub struct RankLoop<'a> {
    pub(crate) comm: Communicator,
    pub(crate) scenario: &'a Scenario,
    /// The global owner assignment and this rank's view of it (blocks and
    /// links): the plan's, borrowed, until a migration changes them.
    pub(crate) forest: Cow<'a, SetupForest>,
    pub(crate) view: Cow<'a, DistributedForest>,
    pub(crate) blocks: Vec<BlockSim>,
    /// Every ghost move of `blocks`, rebuilt by [`RankLoop::blocks_replaced`].
    plan: ExchangePlan,
    ctx: GhostCtx,
    pub(crate) rec: Recorder,
    pub(crate) stats: SweepStats,
    pub(crate) force_series: Vec<(u64, u64, [f64; 3])>,
    cfg: DriverConfig,
    threads: usize,
    mass_initial: f64,
    energy_initial: f64,
}

/// One reduction pass, view order: `(mass, energy, any non-finite PDF)`.
fn reduce_blocks(blocks: &[BlockSim], rec: &Recorder) -> (f64, f64, bool) {
    let _span = rec.span(SpanKind::Reduce);
    let t: Vec<_> = blocks.iter().map(BlockSim::fluid_totals).collect();
    let mass = t.iter().map(|t| t.mass).sum();
    let energy = t.iter().map(|t| t.kinetic_energy).sum();
    (mass, energy, t.iter().any(|t| t.non_finite))
}

impl<'a> RankLoop<'a> {
    /// Builds this rank's blocks (the rank is the communicator's), their
    /// exchange plan and the loop state around them.
    pub fn new(
        comm: Communicator,
        plan: &'a RunPlan,
        scenario: &'a Scenario,
        threads_per_rank: usize,
        cfg: DriverConfig,
    ) -> Self {
        let rec = Recorder::with_epoch(comm.rank(), cfg.obs, plan.epoch);
        let view = &plan.views[comm.rank() as usize];
        let build = rec.open(SpanKind::BuildBlocks);
        let blocks: Vec<BlockSim> = view.blocks.iter().map(|lb| scenario.build_block(lb)).collect();
        let mut lp = RankLoop {
            mass_initial: 0.0,
            energy_initial: 0.0,
            plan: ExchangePlan::default(),
            comm,
            scenario,
            forest: Cow::Borrowed(&plan.forest),
            view: Cow::Borrowed(view),
            blocks,
            ctx: GhostCtx::default(),
            rec,
            stats: SweepStats::default(),
            force_series: Vec::new(),
            cfg,
            threads: threads_per_rank,
        };
        lp.blocks_replaced();
        lp.rec.close(build);
        (lp.mass_initial, lp.energy_initial, _) = reduce_blocks(&lp.blocks, &lp.rec);
        lp
    }

    /// The one hook after the block vector was replaced (built, migrated
    /// or rolled back): rebuilds the exchange plan and [`GhostCtx`] from
    /// every link of the view, and sets the gauges `boundary.links`, the
    /// boundary work per step of this rank's blocks, its pressure part
    /// `boundary.pressure_links` over `boundary.pressure_cells` fluid
    /// cells, `mem.pdf_bytes`, the PDF storage they hold (`src` + `dst`),
    /// and `mem.plan_bytes`.
    pub(crate) fn blocks_replaced(&mut self) {
        // The old plan goes first: two never live at once.
        self.plan = ExchangePlan::default();
        let (view, ctx, n) = (&self.view, &mut self.ctx, self.blocks.len());
        let index: HashMap<_, _> = view.blocks.iter().enumerate().map(|(i, b)| (b.id, i)).collect();
        let mut local = Vec::new();
        (ctx.remote, ctx.waits) = (Vec::new(), vec![false; n]);
        (ctx.seconds, ctx.forces) = (vec![0.0; n], vec![[0.0; 3]; n]);
        for (bi, b) in view.blocks.iter().enumerate() {
            for (&link, d) in b.links.iter().zip(NEIGHBOR_DIRS) {
                match link {
                    BlockLink::Local(id) => local.push((bi, d, index[&id])),
                    // Corner links carry nothing for D3Q19.
                    BlockLink::Remote(id, r) if !pdfs_crossing::<D3Q19>(d).is_empty() => {
                        ctx.remote.push((bi, d, r, id));
                        ctx.waits[bi] = true;
                    }
                    _ => {}
                }
            }
        }
        let plan_blocks: Vec<_> = self.blocks.iter().map(BlockSim::plan_block).collect();
        let remote = ctx.remote.iter().map(|&(bi, d, ..)| (bi, d));
        self.plan = ExchangePlan::build(&plan_blocks, local, remote);
        let sum = |f: fn(&BlockSim) -> usize| self.blocks.iter().map(f).sum::<usize>() as f64;
        let m = self.rec.metrics();
        m.gauge("boundary.links", sum(|b| b.boundary_links().len()));
        m.gauge("boundary.pressure_links", sum(|b| b.boundary_links().pressure_links()));
        m.gauge("boundary.pressure_cells", sum(|b| b.boundary_links().pressure_cells()));
        m.gauge("mem.pdf_bytes", sum(BlockSim::pdf_bytes));
        m.gauge("mem.plan_bytes", self.plan.bytes() as f64);
    }

    /// Puts this rank under `owners` (one rank per forest block, in
    /// forest order) and rebuilds the view; the caller makes the blocks
    /// match and calls [`RankLoop::blocks_replaced`]. No-op (and no forest
    /// clone) if nothing changes.
    pub(crate) fn set_owners(&mut self, owners: &[u32]) {
        if self.forest.blocks.iter().map(|b| b.rank).ne(owners.iter().copied()) {
            for (b, &r) in self.forest.to_mut().blocks.iter_mut().zip(owners) {
                b.rank = r;
            }
            let rank = self.comm.rank() as usize;
            self.view = Cow::Owned(distribute(&self.forest).swap_remove(rank));
        }
    }

    /// This rank's blocks, in view order.
    pub fn blocks(&self) -> &[BlockSim] {
        &self.blocks
    }

    /// One time step `t`: ghost exchange, boundary sweep, stream–collide.
    ///
    /// One pipeline under both schedules: gather and post → same-rank
    /// moves → [`RankLoop::sweep_ready`] → [`RankLoop::drain`] →
    /// [`RankLoop::sweep_ready`] → accounting. Each block takes its whole
    /// step exactly once: *synchronous*, every block in the window after
    /// the drain; *overlapped*, the blocks that posted no receive in the
    /// window before it, while the messages are in flight, and the rest
    /// in the window after it.
    ///
    /// Every ghost value moves through the [`ExchangePlan`] runs of `t`'s
    /// parity: a remote link's send half gathers the sender's whole slab
    /// into a pooled message (`GhostPack`, which also sends it and posts
    /// the receive), same-rank links copy field to field (`GhostCopy`), and
    /// the drain scatters each message, in arrival order, through its
    /// receive half (`GhostDrain`). A carved receiver takes its
    /// [`trillium_comm::GhostRows`] list, a dense one whole slabs; an
    /// unlisted ghost value keeps a stale value no sweep and no boundary
    /// link reads (`pdf_dump` and the totals cover interior cells only).
    /// The schedules are bitwise identical: every block runs the same whole
    /// step on the same ghost values, and ghost slabs of distinct
    /// directions are disjoint. Moves, gathers and scatters may interleave
    /// in any order: within one field the exchange never reads a slot it
    /// writes — interior storage read, ghost storage written at even
    /// parity, the reverse at odd (AA) parity — and parity is per block
    /// (DESIGN.md §9). Debug builds assert at step start that the plan
    /// fits the blocks and their parity. Gates: `cargo test -q -p
    /// trillium-comm ghost` and the tests `equivalence` and
    /// `observability`.
    ///
    /// A `deadline` bounds every blocking receive. Any error withdraws the
    /// posted receives and leaves the blocks in a torn mid-step state for
    /// the caller to discard (by restoring a checkpoint) or give up on.
    pub fn step(&mut self, t: u64, deadline: Option<Duration>) -> Result<(), CommError> {
        let odd = t % 2 == 1;
        debug_assert!(
            self.plan.is_current(odd, self.blocks.iter().map(BlockSim::plan_block)),
            "blocks replaced or re-schemed without blocks_replaced(), or off parity at step {t}"
        );
        // ---- gather and post ----------------------------------------------
        let pack = self.rec.span(SpanKind::GhostPack);
        let ctx = &mut self.ctx;
        for (token, &(bi, d, r, id)) in ctx.remote.iter().enumerate() {
            let mut buf = ctx.pool.pop().unwrap_or_default();
            self.plan.gather(odd, token, self.blocks[bi].src.data(), &mut buf);
            // The neighbor receives from direction −d.
            self.comm.send(r, ghost_tag(id, [-d[0], -d[1], -d[2]], t), buf);
            // Symmetric link: post the receive of the neighbor's data for
            // our ghost slab in direction d.
            self.comm.post(r, ghost_tag(self.view.blocks[bi].id, d, t), token);
        }
        // End of the send phase: release fault-delayed messages now, at a
        // program point, so failure behavior stays deterministic.
        self.comm.flush_delayed();
        pack.finish();

        // ---- same-rank moves ----------------------------------------------
        let copy = self.rec.span(SpanKind::GhostCopy);
        self.plan.apply(odd, &mut self.blocks, |b| b.src.data_mut());
        copy.finish();
        let counts =
            ["comm.local_values", "comm.local_rows", "comm.packed_values", "comm.unpacked_values"];
        for (name, n) in counts.into_iter().zip(self.plan.counts()) {
            self.rec.metrics().add(name, n);
        }

        // ---- sweep what is ready, drain, sweep the rest --------------------
        self.sweep_ready(false);
        // The receive set is empty between steps, torn ones too.
        self.drain(odd, deadline).inspect_err(|_| self.comm.withdraw())?;
        self.sweep_ready(true);

        // ---- accounting (infallible: force samples of completed steps only)
        if self.cfg.force_mask.is_some() {
            let ids = self.view.blocks.iter().map(|lb| lb.id.pack());
            self.force_series.extend(ids.zip(&self.ctx.forces).map(|(id, &f)| (t, id, f)));
        }
        for (bi, b) in self.blocks.iter().enumerate() {
            let (cells, fluid_cells) = b.sweep_counts();
            self.stats.merge(SweepStats { cells, fluid_cells, seconds: self.ctx.seconds[bi] });
        }
        Ok(())
    }

    /// A window: the one place a block is swept inside a step. The blocks
    /// it picks each take their whole step, in a worker fan-out per
    /// phase: [`BlockSim::apply_boundaries`], the force sample, then
    /// [`BlockSim::stream_collide`] (which advances its buffer). Before the
    /// drain (`drained` false) it picks, under the overlapped schedule,
    /// every block that posted no receive (its ghost layer is complete
    /// from same-rank copies), and its time counts as hidden
    /// communication when some block did post; after the drain it picks
    /// the blocks the first window left: every block under the
    /// synchronous schedule. A window with no block to sweep opens no
    /// span and no fan-out.
    fn sweep_ready(&mut self, drained: bool) {
        let (rec, ctx, overlap) = (&self.rec, &mut self.ctx, self.cfg.overlap);
        let (rel, threads) = (self.scenario.relaxation, self.threads);
        // Overlapped, a block that waits on nothing goes before the drain.
        let early = |bi: usize| overlap && !ctx.waits[bi];
        let mut ready: Vec<(usize, &mut BlockSim)> =
            self.blocks.iter_mut().enumerate().filter(|&(bi, _)| early(bi) != drained).collect();
        if ready.is_empty() {
            return;
        }
        let t_hide = rec.clock();
        {
            let _b = rec.span(SpanKind::Boundary);
            // Nothing to prepare (a block without walls): no worker
            // fan-out either.
            if ready.iter().any(|(_, b)| !b.boundary_links().is_empty()) {
                map_each_block(&mut ready, threads, |b| b.apply_boundaries());
            }
        }
        // Forces are read from the pre-sweep populations: after a block's
        // boundary sweep, before its stream–collide.
        if let Some(mask) = self.cfg.force_mask {
            for (bi, b) in &ready {
                ctx.forces[*bi] = b.boundary_force(mask);
            }
        }
        let kernel = rec.span(SpanKind::Kernel);
        let swept = map_each_block(&mut ready, threads, |b| b.stream_collide(rel));
        drop(kernel);
        for ((bi, _), s) in ready.iter().zip(swept) {
            ctx.seconds[*bi] = s.seconds;
        }
        if !drained && !ctx.remote.is_empty() {
            rec.metrics().acc(M_OVERLAP_HIDDEN, rec.clock() - t_hide);
        }
    }

    /// The one drain, between the two windows: takes the step's messages
    /// in arrival order from the posted receives and scatters each through
    /// its receive half of step parity `odd`, one `GhostDrain` span apiece;
    /// it sweeps nothing. A message of the wrong length is
    /// [`CommError::Protocol`]: it writes nothing, and its buffer returns
    /// to the pool like every other. Under the synchronous schedule the
    /// whole sweep is still pending, so a blocked wait is a `Stall` span
    /// between two drain spans. Under the overlapped one every block that
    /// waits on no message has already taken its step, so the wait is
    /// neighbor imbalance and stays in the drain span (see
    /// [`RankResult::ghost_stall_time`]).
    fn drain(&mut self, odd: bool, deadline: Option<Duration>) -> Result<(), CommError> {
        let (rec, ctx, blocks) = (&self.rec, &mut self.ctx, &mut self.blocks);
        for _ in 0..ctx.remote.len() {
            let drain = rec.span(SpanKind::GhostDrain);
            let ((token, data), drain) = match self.comm.poll() {
                Some(hit) => (hit, drain),
                None if self.cfg.overlap => (self.comm.wait(deadline)?, drain),
                None => {
                    drain.finish();
                    let stall = rec.span(SpanKind::Stall);
                    let hit = self.comm.wait(deadline)?;
                    stall.finish();
                    (hit, rec.span(SpanKind::GhostDrain))
                }
            };
            let to = blocks[ctx.remote[token].0].src.data_mut();
            let scattered = self.plan.scatter(odd, token, &data, to);
            ctx.pool.push(data);
            scattered?;
            drain.finish();
        }
        Ok(())
    }

    /// Folds the finished loop into this rank's [`RankResult`]: probes
    /// located against the *current* view (they follow migrated blocks),
    /// the optional PDF dump, conservation totals, and the span totals
    /// mapped onto the (disjoint) timing fields.
    pub fn finish(
        self,
        probes: &[[i64; 3]],
        rebalance: Option<RebalanceReport>,
        resilience: Option<RankResilience>,
    ) -> RankResult {
        let (view, blocks, rec) = (&*self.view, &self.blocks, self.rec);
        // Read the blocks first: that work is part of the rank's wall time.
        let probes = locate_probes(self.scenario, view, blocks, probes);
        let pdfs = if self.cfg.collect_pdfs { dump_pdfs(view, blocks) } else { Vec::new() };
        let (mass_final, energy_final, has_nan) = reduce_blocks(blocks, &rec);
        let c = self.comm.counters();
        let m = rec.metrics();
        m.add("comm.messages_sent", c.messages_sent);
        m.add("comm.bytes_sent", c.bytes_sent);
        m.add("comm.ctrl_messages_sent", c.ctrl_messages_sent);
        let enabled = rec.config().enabled();
        let wall_time = rec.wall();
        let obs = rec.finish();
        RankResult {
            rank: self.comm.rank(),
            num_blocks: blocks.len(),
            stats: self.stats,
            kernel_time: obs.total(SpanKind::Kernel),
            comm_time: obs.total(SpanKind::GhostPack)
                + obs.total(SpanKind::GhostDrain)
                + obs.total(SpanKind::GhostCopy),
            boundary_time: obs.total(SpanKind::Boundary),
            overlap_hidden: obs.metrics.fcounter(M_OVERLAP_HIDDEN),
            ghost_stall_time: obs.total(SpanKind::Stall),
            mass_initial: self.mass_initial,
            mass_final,
            energy_initial: self.energy_initial,
            energy_final,
            force_series: self.force_series,
            probes,
            pdfs,
            has_nan,
            wall_time,
            obs: enabled.then_some(obs),
            rebalance,
            resilience,
        }
    }
}

/// Serializes every block's interior fluid PDFs for bitwise comparison,
/// reading the covered spans (every fluid cell lies in one). A non-fluid
/// cell dumps as zeros: its slots hold what no fluid cell reads, and under
/// the AA pattern a wall slot holds a different dead value than under pull
/// (the boundary sweep overwrites it before any read).
fn dump_pdfs(view: &DistributedForest, blocks: &[BlockSim]) -> Vec<(u64, Vec<f64>)> {
    view.blocks
        .iter()
        .zip(blocks)
        .map(|(lb, b)| {
            let (nx, ny) = (b.shape.nx, b.shape.ny);
            let mut vals = vec![0.0; b.shape.interior_cells() * 19];
            for s in &b.intervals.spans {
                let first = (s.z as usize * ny + s.y as usize) * nx + s.x_begin as usize;
                let cells = &mut vals[first * 19..(first + s.len()) * 19];
                for q in 0..19 {
                    let row = b.src.row(q, s.x_begin, s.y, s.z, s.len());
                    cells.iter_mut().skip(q).step_by(19).zip(row).for_each(|(c, &v)| *c = v);
                }
                for (x, cell) in (s.x_begin..).zip(cells.chunks_exact_mut(19)) {
                    if !b.flags.flags(x, s.y, s.z).is_fluid() {
                        cell.fill(0.0);
                    }
                }
            }
            (lb.id.pack(), vals)
        })
        .collect()
}

/// Evaluates the probes this rank owns (global cell → velocity).
fn locate_probes(
    scenario: &Scenario,
    view: &DistributedForest,
    blocks: &[BlockSim],
    probes: &[[i64; 3]],
) -> Vec<([i64; 3], [f64; 3])> {
    let cells = [scenario.cells[0] as i64, scenario.cells[1] as i64, scenario.cells[2] as i64];
    let mut out = Vec::new();
    for &p in probes {
        for (i, lb) in view.blocks.iter().enumerate() {
            let local = [
                p[0] - lb.coords[0] * cells[0],
                p[1] - lb.coords[1] * cells[1],
                p[2] - lb.coords[2] * cells[2],
            ];
            if (0..3).all(|d| local[d] >= 0 && local[d] < cells[d]) {
                let u = blocks[i].velocity(local[0] as i32, local[1] as i32, local[2] as i32);
                out.push((p, u));
            }
        }
    }
    out
}

/// A block's cost per step: the cells its sweep visits
/// ([`BlockSim::sweep_counts`], what [`SweepStats::cells`] sums). Fixed
/// between migrations, so the ratio, the records and every plan built
/// from them repeat exactly run to run.
fn block_cost(b: &BlockSim) -> f64 {
    b.sweep_counts().0 as f64
}

/// The rebalance hook: every [`RebalanceConfig::every_n_steps`] steps it
/// takes the global ratio of the counted block costs and, above
/// [`RebalanceConfig::threshold`], migrates blocks (state and all) —
/// planning by `trillium-rebalance`, transfer by [`crate::migrate`]. The
/// costs do not change between migrations and the planner accepts only a
/// plan that lowers the ratio by [`PlanOptions::min_graph_gain`], so the
/// rounds end: every later epoch plans `NoOp`.
struct Rebalancer {
    cfg: RebalanceConfig,
    report: RebalanceReport,
}

impl Rebalancer {
    fn new(cfg: RebalanceConfig) -> Self {
        Rebalancer { cfg, report: RebalanceReport::default() }
    }

    /// Called once `done` steps are complete.
    fn after_step(
        &mut self,
        lp: &mut RankLoop,
        done: u64,
        deadline: Option<Duration>,
    ) -> Result<(), MigrationError> {
        if !done.is_multiple_of(self.cfg.every_n_steps.max(1)) {
            return Ok(());
        }
        // Epoch work (allreduce, gather, plan, migration) is its own
        // span — coordination overhead, not ghost-exchange time.
        let span = lp.rec.open(SpanKind::RebalanceEpoch);
        let out = self.epoch(lp, done, deadline);
        lp.rec.close(span);
        out
    }

    /// Epoch boundary: count, decide, maybe migrate.
    fn epoch(
        &mut self,
        lp: &mut RankLoop,
        done: u64,
        deadline: Option<Duration>,
    ) -> Result<(), MigrationError> {
        let (rank, size) = (lp.comm.rank(), lp.comm.size());
        let load = lp.blocks.iter().map(block_cost).sum();
        let (_, max, sum) = lp.comm.try_allreduce_minmaxsum_f64(load)?;
        let ratio = if sum > 0.0 { max * size as f64 / sum } else { 1.0 };
        let mut migrated = 0u32;
        // The ratio is bitwise identical on every rank (same gathered
        // values folded in the same order), so the decision and the plan
        // need no extra agreement round.
        if ratio > self.cfg.threshold {
            let records: Vec<BlockRecord> = lp
                .view
                .blocks
                .iter()
                .zip(&lp.blocks)
                .map(|(lb, b)| BlockRecord {
                    id: lb.id.pack(),
                    owner: rank,
                    coords: [lb.coords[0] as u32, lb.coords[1] as u32, lb.coords[2] as u32],
                    level: lb.id.level(),
                    cost: block_cost(b),
                    fluid_cells: b.fluid_cells() as u64,
                })
                .collect();
            let gathered = lp.comm.try_allgather_bytes(encode_records(&records))?;
            let mut all = Vec::new();
            for bytes in &gathered {
                // A peer's ragged buffer is a torn round like any other.
                all.extend(decode_records(bytes).map_err(|_| CommError::Protocol)?);
            }
            let plan = plan_rebalance(all, size, &PlanOptions::default());
            migrated = plan.migrations().count() as u32;
            if migrated > 0 {
                let span = lp.rec.open(SpanKind::Migration);
                let ms = execute_migrations(lp, &plan, deadline);
                lp.rec.close(span);
                let ms = ms?;
                self.report.migrations_out += ms.sent;
                self.report.migrations_in += ms.received;
                self.report.rebalances += 1;
                lp.rec.metrics().add("rebalance.migrations_out", ms.sent as u64);
                lp.rec.metrics().add("rebalance.migrations_in", ms.received as u64);
                lp.rec.metrics().add("rebalance.rounds", 1);
            }
        }
        self.report.epochs.push(EpochReport { step: done, ratio, migrated });
        Ok(())
    }

    /// The cohort rolled back to `step`, possibly onto another owner
    /// assignment: the epochs about to be replayed leave the history.
    fn rolled_back(&mut self, step: u64) {
        self.report.epochs.retain(|e| e.step <= step);
    }

    fn finish(mut self, lp: &RankLoop) -> RebalanceReport {
        self.report.final_costs = lp
            .view
            .blocks
            .iter()
            .zip(&lp.blocks)
            .map(|(lb, b)| (lb.id.pack(), block_cost(b), b.fluid_cells() as u64))
            .collect();
        for (id, cost, _) in &self.report.final_costs {
            lp.rec.metrics().gauge(&format!("rebalance.block_cost.{id}"), *cost);
        }
        self.report
    }
}

/// Ghost-exchange state around the plan: the remote links and which
/// blocks wait on them, per view (built by [`RankLoop::blocks_replaced`]),
/// and the message buffers and per-step results recycled across steps, so
/// a step performs **no heap allocation** after warm-up. Received payloads
/// become the next step's send buffers — per-step send and receive counts
/// are equal (links are symmetric): steady state after one step.
#[derive(Default)]
struct GhostCtx {
    /// The remote links in plan order, `(block index, direction, the
    /// neighbor's rank, the neighbor's id)`; a link's index is the token
    /// of its receive.
    remote: Vec<(usize, [i8; 3], u32, BlockId)>,
    /// Per local block: whether it posts a receive each step.
    waits: Vec<bool>,
    pool: Vec<Vec<u8>>,
    /// Sweep seconds per local block this step.
    seconds: Vec<f64>,
    /// Per-block masked boundary force this step, recorded at step end.
    forces: Vec<[f64; 3]>,
}

/// Splits `items` into exactly `min(parts, len)` contiguous slices whose
/// sizes differ by at most one (the first `len % parts` slices get the
/// extra element). `div_ceil`-sized chunking could leave whole threads
/// idle — 9 blocks on 4 threads gave chunks of 3/3/3 and an idle fourth
/// worker; here they get 3/2/2/2.
fn balanced_parts<T>(items: &mut [T], parts: usize) -> Vec<&mut [T]> {
    let n = items.len();
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut rest = items;
    let mut out = Vec::with_capacity(parts);
    for i in 0..parts {
        let take = base + usize::from(i < extra);
        let (head, tail) = rest.split_at_mut(take);
        out.push(head);
        rest = tail;
    }
    out
}

/// Applies `f` to every block of `ready` (`(block index, block)`
/// pairs), optionally with thread parallelism (the hybrid MPI+OpenMP
/// analogue: one rank, several threads over its blocks), collecting the
/// results in `ready` order.
fn map_each_block<T: Send, F: Fn(&mut BlockSim) -> T + Sync>(
    ready: &mut [(usize, &mut BlockSim)],
    threads: usize,
    f: F,
) -> Vec<T> {
    let each = |(_, b): &mut (usize, &mut BlockSim)| f(b);
    if threads <= 1 || ready.len() <= 1 {
        ready.iter_mut().map(each).collect()
    } else {
        let mut out: Vec<Vec<T>> = Vec::new();
        std::thread::scope(|scope| {
            let each = &each;
            let handles: Vec<_> = balanced_parts(ready, threads)
                .into_iter()
                .map(|part| scope.spawn(move || part.iter_mut().map(each).collect::<Vec<T>>()))
                .collect();
            for h in handles {
                out.push(h.join().expect("block worker panicked"));
            }
        });
        out.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decisive distributed-correctness test: a multi-rank,
    /// multi-block run must produce *bit-identical* velocities to the
    /// single-rank, single-block run of the same problem — ghost exchange
    /// is exact, not approximate.
    #[test]
    fn distributed_equals_single_block() {
        let probes: Vec<[i64; 3]> =
            vec![[1, 1, 1], [8, 8, 14], [7, 8, 8], [8, 7, 3], [15, 15, 15], [0, 15, 8]];
        // Reference: one rank, one block of 16³.
        let s1 = Scenario::lid_driven_cavity(16, 1, 0.06, 0.08);
        let r1 =
            crate::driver::run_distributed_with(&s1, 1, 1, 40, &probes, DriverConfig::default());
        // Distributed: 8 ranks, 2×2×2 blocks of 8³.
        let s8 = Scenario::lid_driven_cavity(16, 2, 0.06, 0.08);
        let r8 =
            crate::driver::run_distributed_with(&s8, 8, 1, 40, &probes, DriverConfig::default());

        assert!(!r1.has_nan() && !r8.has_nan());
        let p1 = r1.probes();
        let p8 = r8.probes();
        assert_eq!(p1.len(), probes.len());
        assert_eq!(p8.len(), probes.len());
        for ((c1, u1), (c8, u8)) in p1.iter().zip(&p8) {
            assert_eq!(c1, c8);
            for d in 0..3 {
                assert_eq!(u1[d], u8[d], "mismatch at {c1:?} axis {d}");
            }
        }
        // Same total work.
        assert_eq!(r1.total_stats().cells, r8.total_stats().cells);
    }

    /// Multiple blocks per rank (4 ranks × 2 blocks) and hybrid threading
    /// must also reproduce the single-block reference.
    #[test]
    fn multiblock_and_threads_equal_single() {
        let probes: Vec<[i64; 3]> = vec![[3, 5, 9], [11, 2, 4], [6, 6, 6]];
        let s1 = Scenario::lid_driven_cavity(12, 1, 0.05, 0.1);
        let r1 =
            crate::driver::run_distributed_with(&s1, 1, 1, 25, &probes, DriverConfig::default());
        let s_multi = Scenario::lid_driven_cavity(12, 2, 0.05, 0.1);
        let r4 = crate::driver::run_distributed_with(
            &s_multi,
            4,
            2,
            25,
            &probes,
            DriverConfig::default(),
        );
        for ((_, u1), (_, u4)) in r1.probes().iter().zip(&r4.probes()) {
            for d in 0..3 {
                assert_eq!(u1[d], u4[d]);
            }
        }
    }

    #[test]
    fn cavity_conserves_mass_across_ranks() {
        let s = Scenario::lid_driven_cavity(16, 2, 0.08, 0.05);
        let r = run_distributed(&s, 4, 1, 30);
        assert!(r.mass_drift().abs() < 1e-11, "drift {}", r.mass_drift());
        assert_eq!(r.total_stats().cells, 16 * 16 * 16 * 30);
    }

    #[test]
    fn channel_develops_throughflow() {
        let s = Scenario::channel_with_obstacle([32, 8, 8], [4, 1, 1], 0.08, 0.04, 0.18);
        let probes: Vec<[i64; 3]> = vec![[4, 4, 4], [16, 6, 4], [28, 4, 4]];
        let r = run_distributed_with(&s, 4, 1, 120, &probes, DriverConfig::default());
        assert!(!r.has_nan());
        let p = r.probes();
        // Flow moves in +x everywhere along the channel.
        for (c, u) in &p {
            assert!(u[0] > 1e-4, "no throughflow at {c:?}: {u:?}");
        }
    }

    #[test]
    fn timers_are_recorded() {
        let s = Scenario::lid_driven_cavity(8, 2, 0.05, 0.1);
        let r = run_distributed(&s, 2, 1, 5);
        for rr in &r.ranks {
            assert!(rr.kernel_time > 0.0);
            assert!(rr.comm_time > 0.0);
            assert!(rr.overlap_hidden == 0.0, "sync path must not report hidden time");
            assert!(rr.num_blocks == 4);
        }
        assert!(r.comm_fraction() > 0.0 && r.comm_fraction() < 1.0);
    }

    /// The tentpole equivalence: the overlapped schedule must produce
    /// *bitwise identical* PDFs to the synchronous reference, across
    /// multiple ranks, multiple blocks per rank, and hybrid threading.
    #[test]
    fn overlap_matches_sync_bitwise() {
        let s = Scenario::lid_driven_cavity(16, 2, 0.06, 0.08);
        let cfg_sync = DriverConfig { collect_pdfs: true, ..Default::default() };
        let cfg_over = DriverConfig { overlap: true, collect_pdfs: true, ..Default::default() };
        let sync = run_distributed_with(&s, 4, 1, 30, &[], cfg_sync);
        for threads in [1usize, 2] {
            let over = run_distributed_with(&s, 4, threads, 30, &[], cfg_over);
            assert!(!over.has_nan());
            let a = sync.pdf_dump();
            let b = over.pdf_dump();
            assert_eq!(a.len(), b.len());
            for ((id_a, va), (id_b, vb)) in a.iter().zip(&b) {
                assert_eq!(id_a, id_b);
                assert_eq!(va.len(), vb.len());
                for (x, y) in va.iter().zip(vb) {
                    assert!(x == y, "block {id_a}: overlap deviates ({threads} threads)");
                }
            }
            // Identical accounting too: same cells and fluid cells swept.
            assert_eq!(sync.total_stats().cells, over.total_stats().cells);
            assert_eq!(sync.total_stats().fluid_cells, over.total_stats().fluid_cells);
            // Every block waits on a message, so the overlapped step has
            // nothing to sweep while they are in flight; and it never
            // exposes a stall.
            assert!(over.overlap_hidden() == 0.0);
            assert!(
                over.ranks.iter().all(|rr| rr.ghost_stall_time == 0.0),
                "overlap must not expose stall"
            );
        }
    }

    /// The overlapped schedule must also match on a sparse geometry
    /// (row-interval kernels) with an interior obstacle.
    #[test]
    fn overlap_matches_sync_on_sparse_channel() {
        let s = Scenario::channel_with_obstacle([24, 8, 8], [3, 1, 1], 0.08, 0.04, 0.18);
        let cfg_sync = DriverConfig { collect_pdfs: true, ..Default::default() };
        let cfg_over = DriverConfig { overlap: true, collect_pdfs: true, ..Default::default() };
        let sync = run_distributed_with(&s, 3, 1, 40, &[], cfg_sync);
        let over = run_distributed_with(&s, 3, 1, 40, &[], cfg_over);
        assert!(!sync.has_nan() && !over.has_nan());
        let (a, b) = (sync.pdf_dump(), over.pdf_dump());
        assert!(!a.is_empty());
        assert_eq!(a, b, "sparse overlap deviates from sync");
    }

    /// A peer that answers with a truncated ghost message ends the run as
    /// a typed protocol error on the receiving rank, not as a panic (under
    /// a resilience hook the same error is a rollback).
    #[test]
    fn truncated_ghost_message_from_a_peer_is_a_protocol_error() {
        let s = Scenario::lid_driven_cavity(8, 2, 0.05, 0.1);
        let plan = plan_run(&s, 2);
        // Not a time loop: `bytes` for every face rank 0 expects.
        let answer = |comm: &mut Communicator, bytes: usize| {
            for lb in &plan.views[0].blocks {
                for (link, d) in lb.links.iter().zip(NEIGHBOR_DIRS) {
                    if matches!(link, BlockLink::Remote(..)) {
                        comm.send(0, ghost_tag(lb.id, d, 0), vec![0; bytes]);
                    }
                }
            }
        };
        let outcome = World::run_fallible(2, None, |mut comm| {
            if comm.rank() == 0 {
                return Some(drive_rank(comm, &plan, &s, 1, 1, &[], &RunConfig::default()));
            }
            // A peer is built before it sends: it joins the set-up wait.
            comm.await_cohort().unwrap();
            answer(&mut comm, 8);
            None
        });
        match &outcome[0] {
            Ok(Some(Err(RecoveryError::Comm { rank: 0, error: CommError::Protocol }))) => {}
            other => panic!("expected a protocol error on rank 0, got {other:?}"),
        }
        // The buffer of a rejected message still returns to the pool: the
        // step fails on the first message, and the pool holds its buffer.
        let pooled = World::run_fallible(2, None, |mut comm| {
            if comm.rank() == 0 {
                let mut lp = RankLoop::new(comm, &plan, &s, 1, DriverConfig::default());
                return Some((lp.step(0, None), lp.ctx.pool.len()));
            }
            answer(&mut comm, 24);
            None
        });
        assert_eq!(pooled[0], Ok(Some((Err(CommError::Protocol), 1))));
    }

    #[test]
    fn mass_drift_of_a_run_without_fluid_is_zero() {
        let s = Scenario::lid_driven_cavity(8, 2, 0.05, 0.1);
        let mut r = run_distributed(&s, 2, 1, 1);
        assert!(r.mass_drift().is_finite());
        for rr in &mut r.ranks {
            (rr.mass_initial, rr.mass_final) = (0.0, 0.0);
        }
        assert_eq!(r.mass_drift(), 0.0);
    }

    #[test]
    fn balanced_parts_use_every_thread() {
        let mut v: Vec<u32> = (0..9).collect();
        let parts = balanced_parts(&mut v, 4);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![3, 2, 2, 2]);
        let mut v: Vec<u32> = (0..3).collect();
        assert_eq!(balanced_parts(&mut v, 8).len(), 3, "never more parts than items");
        let mut v: Vec<u32> = (0..8).collect();
        let parts = balanced_parts(&mut v, 4);
        assert!(parts.iter().all(|p| p.len() == 2));
        // Order is preserved.
        let flat: Vec<u32> = parts.iter().flat_map(|p| p.iter().copied()).collect();
        assert_eq!(flat, (0..8).collect::<Vec<u32>>());
    }
}
