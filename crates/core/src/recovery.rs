//! Checkpoint/restart resilience for the distributed time loop.
//!
//! The paper's trillion-cell runs occupy full machines (147k–458k
//! cores) for hours; at that scale component failure is a *when*, not
//! an *if*, and waLBerla answers it by checkpointing its fully
//! distributed block structure. This module is that answer for our
//! thread-backed substrate: the resilience hook of the time loop
//! ([`crate::driver::drive_rank`]), composable with either step
//! schedule and with runtime rebalancing. It adds
//!
//! * **bounded waits** — every blocking receive (ghost drain, rebalance
//!   collectives, migration payloads) carries
//!   [`ResilienceConfig::step_timeout`], so a dead or wedged neighbor
//!   surfaces as a [`CommError`] instead of a hang;
//! * **coordinated checkpointing** — every
//!   [`ResilienceConfig::checkpoint_every`] steps the cohort runs
//!   `Communicator::agree_all`, which doubles as a barrier: a `true`
//!   verdict proves every rank reached the same step with no data
//!   message in flight, so the per-rank [`save_forest`] snapshots taken
//!   right after form a globally consistent cut;
//! * **rollback recovery** — on any failure (fail-stop crash announced
//!   by the fault plan, receive timeout, failed agreement) every rank
//!   joins `Communicator::recovery_sync`, drains all stale traffic,
//!   restores its slice (and the owner assignment it was taken under)
//!   from the last checkpoint and replays. Replay is deterministic, so
//!   the final state is bitwise identical to an unfaulted run — pinned
//!   by the `resilience` integration tests.
//!
//! Recovery converges because injected message faults draw fresh
//! sequence numbers on replay (a capped or probabilistic plan
//! eventually runs clean) and a fail-stop crash is one-shot. The
//! matching analytical question — how often *should* one checkpoint on
//! a machine with a given MTBF — is answered by `scaling::resilience`
//! (Young/Daly), not here.

use crate::checkpoint::{restore_forest, save_forest, RestoreError};
use crate::driver::{run_distributed_composed, RankLoop, RunConfig, RunResult};
use crate::migrate::MigrationError;
use crate::scenario::Scenario;
use std::time::Duration;
use trillium_comm::{CommError, FaultConfig, FaultEvent};
use trillium_kernels::SweepStats;
use trillium_obs::SpanKind;

/// Configuration of the resilience hook.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Steps between coordinated checkpoints (K). The initial state
    /// counts as checkpoint zero, so recovery is possible from step one.
    pub checkpoint_every: u64,
    /// Upper bound on any single blocking receive of a step or epoch and
    /// on the checkpoint agreement — the failure detector's patience.
    pub step_timeout: Duration,
    /// Upper bound on each wait inside the recovery barrier. Must
    /// comfortably exceed [`ResilienceConfig::step_timeout`]: a rank
    /// that noticed nothing keeps stepping until its next agreement
    /// point times out, and only then joins recovery.
    pub recovery_timeout: Duration,
    /// Recoveries after which a rank gives up (returning
    /// [`RecoveryError::TooManyRecoveries`]) instead of thrashing
    /// forever against a persistent failure.
    pub max_recoveries: u32,
    /// Deterministic fault plan installed on every rank (None = clean
    /// run; the hook then only adds the timeouts and checkpoints).
    pub fault: Option<FaultConfig>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            checkpoint_every: 10,
            step_timeout: Duration::from_secs(5),
            recovery_timeout: Duration::from_secs(30),
            max_recoveries: 16,
            fault: None,
        }
    }
}

/// Terminal failures of the time loop: conditions it cannot — or, with
/// no resilience hook, may not — recover from, surfaced to the caller as
/// an error instead of a rank panic (which would poison the whole
/// thread-backed world and hide the cause behind a generic join
/// failure).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// A receive failed and the run has no resilience hook to roll back
    /// with.
    Comm {
        /// Rank reporting the failure.
        rank: u32,
        /// The communication failure.
        error: CommError,
    },
    /// A rebalance epoch failed for a reason no rollback fixes (see
    /// [`MigrationError`]).
    Migration {
        /// Rank reporting the failure.
        rank: u32,
        /// What went wrong.
        error: MigrationError,
    },
    /// The cohort exhausted [`ResilienceConfig::max_recoveries`]
    /// rollbacks without completing the run — a persistent failure no
    /// amount of replay fixes.
    TooManyRecoveries {
        /// Rank that gave up (recovery is global, so usually all do).
        rank: u32,
        /// Completed rollback recoveries before giving up.
        attempts: u32,
    },
    /// The recovery barrier itself failed: a peer never joined within
    /// [`ResilienceConfig::recovery_timeout`], so no consistent restore
    /// point could be negotiated.
    CohortUnrecoverable {
        /// Rank reporting the failed barrier.
        rank: u32,
        /// The communication failure that broke the barrier.
        error: CommError,
    },
    /// The negotiated restore step is not in this rank's local
    /// checkpoint history — the retention policy and the negotiation
    /// disagree (a protocol invariant violation, kept as a defined
    /// error rather than an assert).
    MissingCheckpoint {
        /// Rank missing the snapshot.
        rank: u32,
        /// The step the cohort agreed to restore.
        step: u64,
    },
    /// The plan handed to `drive_rank` was built for another run — a
    /// forest file from a different set-up.
    PlanMismatch {
        /// Rank reporting the mismatch (every rank does).
        rank: u32,
        /// What differs between the plan and the world or scenario.
        what: &'static str,
    },
    /// A locally held checkpoint failed to deserialize — stable storage
    /// corruption.
    CorruptCheckpoint {
        /// Rank holding the corrupt snapshot.
        rank: u32,
        /// The decode failure.
        error: RestoreError,
    },
    /// A rank's thread panicked — a bug, not a fault: contained at the
    /// cohort launch (`World::run_fallible`) so it cannot unwind into
    /// whoever started the run. Its peers report the dead rank as
    /// [`RecoveryError::Comm`].
    RankPanicked {
        /// The rank that panicked.
        rank: u32,
        /// The panic message.
        message: String,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Comm { rank, error } => write!(f, "rank {rank}: {error}"),
            RecoveryError::Migration { rank, error } => write!(f, "rank {rank}: {error}"),
            RecoveryError::TooManyRecoveries { rank, attempts } => {
                write!(f, "rank {rank}: gave up after {attempts} recoveries")
            }
            RecoveryError::CohortUnrecoverable { rank, error } => {
                write!(f, "rank {rank}: cohort unrecoverable: {error}")
            }
            RecoveryError::MissingCheckpoint { rank, step } => {
                write!(f, "rank {rank}: negotiated checkpoint for step {step} not held locally")
            }
            RecoveryError::PlanMismatch { rank, what } => {
                write!(f, "rank {rank}: the run plan was built for another {what}")
            }
            RecoveryError::CorruptCheckpoint { rank, error } => {
                write!(f, "rank {rank}: checkpoint unreadable: {error:?}")
            }
            RecoveryError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Per-rank resilience accounting.
#[derive(Clone, Debug, Default)]
pub struct RankResilience {
    /// Rank index.
    pub rank: u32,
    /// Rollback recoveries this rank participated in (identical on all
    /// ranks — recovery is a global event).
    pub recoveries: u32,
    /// Steps re-executed due to rollbacks (work lost to failures).
    pub replayed_steps: u64,
    /// Checkpoints taken, including the initial state.
    pub checkpoints: u32,
    /// This rank's injected failure trace, in injection order — bitwise
    /// reproducible for a given fault seed.
    pub fault_events: Vec<FaultEvent>,
}

/// Outcome of [`run_distributed_resilient`]: the [`RunResult`], whose
/// ranks carry the resilience ledger ([`RunResult::recoveries`] and
/// friends).
#[derive(Clone, Debug)]
pub struct ResilientRunResult {
    /// Per-rank simulation results (steps counts the survivor timeline,
    /// not replays).
    pub run: RunResult,
}

/// Runs `scenario` on the synchronous schedule under the resilience
/// hook alone: [`run_distributed_composed`] with only
/// [`RunConfig::resilience`] set. Results (probes, PDFs, mass) are
/// bitwise identical to the corresponding unhooked run.
pub fn run_distributed_resilient(
    scenario: &Scenario,
    num_procs: u32,
    threads_per_rank: usize,
    steps: u64,
    probes: &[[i64; 3]],
    cfg: &ResilienceConfig,
) -> Result<ResilientRunResult, RecoveryError> {
    let cfg = RunConfig { resilience: Some(cfg.clone()), ..RunConfig::default() };
    run_distributed_composed(scenario, num_procs, threads_per_rank, steps, probes, &cfg)
        .map(|run| ResilientRunResult { run })
}

/// One retained checkpoint: this rank's part of a globally consistent
/// cut. In a real deployment the buffer lives on the parallel file
/// system; here the in-memory copy models stable storage that survives
/// the fail-stop crash (the "restarted from the pool" replacement
/// re-reads it).
struct Checkpoint {
    step: u64,
    /// The [`save_forest`] buffer of the local blocks, in view order.
    bytes: Vec<u8>,
    stats: SweepStats,
    /// Owner of every forest block at the cut, in forest order — what
    /// the view was derived from; a rollback may cross a migration round.
    owners: Vec<u32>,
}

impl Checkpoint {
    fn take(lp: &RankLoop, step: u64) -> Self {
        let framed: Vec<_> = lp.view.blocks.iter().map(|b| b.id.pack()).zip(&lp.blocks).collect();
        Checkpoint {
            step,
            bytes: save_forest(step, &framed),
            stats: lp.stats,
            owners: lp.forest.blocks.iter().map(|b| b.rank).collect(),
        }
    }
}

/// The resilience hook: crash check and rollback before a step,
/// checkpoint agreement after it.
pub(crate) struct Resilience<'c> {
    cfg: &'c ResilienceConfig,
    /// The newest THREE checkpoints, not one: a checkpoint agreement can
    /// be torn by a failure (some ranks receive the commit verdict, a
    /// straggler times out first), and consecutive torn commits stagger
    /// the per-rank histories by up to two epochs. Recovery then
    /// negotiates the newest step *everyone* still owns —
    /// `recovery_sync` intersects the full held-step sets, so a snapshot
    /// this rank committed eagerly is never picked unless every peer
    /// holds it too. Three deep is the smallest history for which the
    /// intersection provably stays non-empty under that staggering.
    ckpts: Vec<Checkpoint>,
    report: RankResilience,
    /// A failure was seen; the loop must roll back before its next step.
    pub(crate) pending: bool,
}

impl<'c> Resilience<'c> {
    /// Takes checkpoint zero — the initial state, before any step — so
    /// recovery is possible from step one.
    pub(crate) fn new(cfg: &'c ResilienceConfig, lp: &RankLoop) -> Self {
        Resilience {
            cfg,
            ckpts: vec![Checkpoint::take(lp, 0)],
            report: RankResilience { rank: lp.comm.rank(), checkpoints: 1, ..Default::default() },
            pending: false,
        }
    }

    /// Joins the recovery barrier at step `t`, restores the newest
    /// checkpoint the whole cohort holds, and returns its step — where
    /// the loop resumes. The caller wraps it in the `Recovery` span.
    pub(crate) fn rollback(&mut self, lp: &mut RankLoop, t: u64) -> Result<u64, RecoveryError> {
        let rank = lp.comm.rank();
        self.pending = false;
        // Give up *before* attempting one more rollback, so `attempts`
        // is the number of rollbacks actually burned.
        if self.report.recoveries >= self.cfg.max_recoveries {
            return Err(RecoveryError::TooManyRecoveries {
                rank,
                attempts: self.report.recoveries,
            });
        }
        self.report.recoveries += 1;
        let held: Vec<u64> = self.ckpts.iter().map(|c| c.step).collect();
        let restore_step = lp
            .comm
            .recovery_sync(self.cfg.recovery_timeout, &held)
            .map_err(|error| RecoveryError::CohortUnrecoverable { rank, error })?;
        // Snapshots newer than the agreed cut were committed on only
        // part of the cohort — inconsistent, discard them.
        self.ckpts.retain(|c| c.step <= restore_step);
        let ck = match self.ckpts.last() {
            Some(c) if c.step == restore_step => c,
            _ => return Err(RecoveryError::MissingCheckpoint { rank, step: restore_step }),
        };
        let (_, restored) = restore_forest(&ck.bytes, lp.scenario.boundary)
            .map_err(|error| RecoveryError::CorruptCheckpoint { rank, error })?;
        // Back onto the owner assignment the snapshot was taken under:
        // the view is a pure function of it, so it lists exactly the saved
        // blocks, in the saved order.
        lp.set_owners(&ck.owners);
        debug_assert!(restored.iter().map(|r| r.0).eq(lp.view.blocks.iter().map(|b| b.id.pack())));
        lp.blocks = restored.into_iter().map(|(_, b)| b).collect();
        // Replay must collide identically.
        for b in &mut lp.blocks {
            lp.scenario.stamp(b);
        }
        lp.blocks_replaced();
        lp.stats = ck.stats;
        // Force samples land in step order, one per block and completed
        // step, so replaying from `restore_step` must drop the samples of
        // the undone steps — replay then re-records them bitwise.
        let kept = lp.force_series.partition_point(|&(step, ..)| step < restore_step);
        lp.force_series.truncate(kept);
        self.report.replayed_steps += t.saturating_sub(restore_step);
        Ok(restore_step)
    }

    /// Checkpoint epoch, once `t` steps are complete: the agreement
    /// doubles as a barrier, so a true verdict makes the per-rank
    /// snapshots a consistent global cut. The final step always agrees
    /// (but never snapshots); a failed final agreement keeps the loop
    /// alive through the pending rollback, replays, and re-agrees at
    /// `t == steps` — so a rank only exits once the whole cohort reached
    /// the end cleanly.
    pub(crate) fn after_step(
        &mut self,
        lp: &mut RankLoop,
        t: u64,
        steps: u64,
    ) -> Result<(), CommError> {
        let k = self.cfg.checkpoint_every.max(1);
        if t % k != 0 && t != steps {
            return Ok(());
        }
        let _cg = lp.rec.span(SpanKind::Checkpoint);
        if !lp.comm.agree_all(true, self.cfg.step_timeout)? {
            // A peer missed the round; the root abandoned it.
            return Err(CommError::Timeout);
        }
        if t % k == 0 && t < steps {
            self.ckpts.push(Checkpoint::take(lp, t));
            if self.ckpts.len() > 3 {
                self.ckpts.remove(0);
            }
            self.report.checkpoints += 1;
        }
        Ok(())
    }

    /// Closes the ledger and mirrors it into the metrics registry.
    pub(crate) fn finish(mut self, lp: &RankLoop) -> RankResilience {
        self.report.fault_events = lp.comm.fault_events();
        let m = lp.rec.metrics();
        for e in &self.report.fault_events {
            match e {
                FaultEvent::Dropped { .. } => m.add("fault.drops", 1),
                FaultEvent::Duplicated { .. } => m.add("fault.dups", 1),
                FaultEvent::Delayed { .. } => m.add("fault.delays", 1),
                FaultEvent::Crashed { .. } => m.add("fault.crashes", 1),
            }
        }
        m.add("resilience.checkpoints", u64::from(self.report.checkpoints));
        m.add("resilience.rollbacks", u64::from(self.report.recoveries));
        m.add("resilience.replayed_steps", self.report.replayed_steps);
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_distributed_with, DriverConfig};

    fn pdf_cfg() -> DriverConfig {
        DriverConfig { collect_pdfs: true, ..DriverConfig::default() }
    }

    /// A resilient synchronous run that dumps its PDFs.
    fn run_resilient(
        scenario: &Scenario,
        ranks: u32,
        steps: u64,
        rc: ResilienceConfig,
    ) -> Result<RunResult, RecoveryError> {
        let cfg = RunConfig { driver: pdf_cfg(), resilience: Some(rc), ..RunConfig::default() };
        run_distributed_composed(scenario, ranks, 1, steps, &[], &cfg)
    }

    #[test]
    fn clean_resilient_run_matches_plain_driver_bitwise() {
        let scenario = Scenario::lid_driven_cavity(16, 2, 0.05, 0.08);
        let plain = run_distributed_with(&scenario, 4, 1, 12, &[], pdf_cfg());
        let rc = ResilienceConfig { checkpoint_every: 5, ..ResilienceConfig::default() };
        let res = run_resilient(&scenario, 4, 12, rc).expect("clean run");
        assert_eq!(res.recoveries(), 0);
        assert_eq!(res.replayed_steps(), 0);
        // initial + steps 5 and 10
        assert_eq!(res.checkpoints(), 3);
        assert_eq!(plain.pdf_dump(), res.pdf_dump());
    }

    #[test]
    fn crash_rolls_back_and_replays_to_the_same_state() {
        let scenario = Scenario::lid_driven_cavity(16, 2, 0.05, 0.08);
        let plain = run_distributed_with(&scenario, 4, 1, 10, &[], pdf_cfg());
        let rc = ResilienceConfig {
            checkpoint_every: 4,
            step_timeout: Duration::from_secs(2),
            fault: Some(FaultConfig::new(7).with_crash(2, 6)),
            ..ResilienceConfig::default()
        };
        let res = run_resilient(&scenario, 4, 10, rc).expect("crash is recoverable");
        assert_eq!(res.recoveries(), 1);
        // Rolled back from step 6 to the step-4 checkpoint on every rank.
        assert_eq!(res.replayed_steps(), 4 * 2);
        assert_eq!(plain.pdf_dump(), res.pdf_dump());
        assert!(res
            .failure_trace()
            .iter()
            .any(|(r, e)| *r == 2 && matches!(e, FaultEvent::Crashed { step: 6 })));
    }

    /// Regression: a one-sided message drop in the *last* checkpoint
    /// window only surfaces at the final agreement, where `t` already
    /// equals `steps`. The healthy rank used to exit the time loop with
    /// `need_recovery` still pending, stranding the rolled-back peer in
    /// `recovery_sync` and aborting the whole run ("cohort
    /// unrecoverable"). Both ranks must instead roll back, replay, and
    /// finish bitwise identical to the unfaulted run.
    #[test]
    fn failure_in_final_checkpoint_window_recovers() {
        // Seeds picked so the single capped drop is one-sided: seed 6
        // stalls rank 1's receive (rank 0, the agreement root, sees the
        // missing vote), seed 9 stalls rank 0's (rank 1 waits on the
        // verdict and is interrupted) — covering both exit paths.
        for seed in [6, 9] {
            let scenario = Scenario::lid_driven_cavity(16, 2, 0.05, 0.08);
            let plain = run_distributed_with(&scenario, 2, 1, 1, &[], pdf_cfg());
            let rc = ResilienceConfig {
                checkpoint_every: 100,
                step_timeout: Duration::from_secs(1),
                recovery_timeout: Duration::from_secs(10),
                fault: Some(FaultConfig::new(seed).with_drops(0.02).with_fault_cap(1)),
                ..ResilienceConfig::default()
            };
            let res =
                run_resilient(&scenario, 2, 1, rc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(res.recoveries(), 1, "seed {seed}: the drop must cause one rollback");
            assert_eq!(plain.pdf_dump(), res.pdf_dump(), "seed {seed}: replay must converge");
        }
    }

    /// A persistent failure must surface as a typed error with a correct
    /// attempt count, not a rank panic: with `max_recoveries: 0` the
    /// very first rollback is refused.
    #[test]
    fn exhausted_recovery_budget_is_a_typed_error() {
        let scenario = Scenario::lid_driven_cavity(16, 2, 0.05, 0.08);
        let rc = ResilienceConfig {
            checkpoint_every: 4,
            step_timeout: Duration::from_secs(2),
            recovery_timeout: Duration::from_secs(4),
            max_recoveries: 0,
            fault: Some(FaultConfig::new(7).with_crash(2, 6)),
        };
        let err =
            run_resilient(&scenario, 4, 10, rc).expect_err("zero budget cannot absorb a crash");
        match err {
            RecoveryError::TooManyRecoveries { attempts, .. } => {
                assert_eq!(attempts, 0, "budget checked before burning another rollback");
                assert!(err.to_string().contains("gave up after 0 recoveries"));
            }
            // Ranks that noticed the dead peer only after the victim
            // already gave up see the broken barrier instead; either
            // report is a faithful account of the same failure.
            RecoveryError::CohortUnrecoverable { .. } => {}
            other => panic!("unexpected error: {other}"),
        }
    }

    /// Regression seed scan for the checkpoint-retention bug: under
    /// sustained message drops, consecutive torn checkpoint commits
    /// stagger the per-rank histories, and the 2-deep history used to
    /// prune a step the cohort later negotiated ("missing checkpoint"
    /// panic). With intersection negotiation over a 3-deep history every
    /// seed must either complete bitwise identical to the unfaulted run
    /// or fail with a typed error — never a missing local snapshot.
    #[test]
    fn drop_seed_scan_never_loses_a_negotiated_checkpoint() {
        let scenario = Scenario::lid_driven_cavity(16, 2, 0.05, 0.08);
        let plain = run_distributed_with(&scenario, 4, 1, 14, &[], pdf_cfg());
        for seed in 0..12u64 {
            let rc = ResilienceConfig {
                checkpoint_every: 3,
                step_timeout: Duration::from_millis(500),
                recovery_timeout: Duration::from_secs(5),
                fault: Some(FaultConfig::new(seed).with_drops(0.03).with_fault_cap(3)),
                ..ResilienceConfig::default()
            };
            match run_resilient(&scenario, 4, 14, rc) {
                Ok(res) => assert_eq!(
                    plain.pdf_dump(),
                    res.pdf_dump(),
                    "seed {seed}: replay must converge bitwise"
                ),
                Err(e @ RecoveryError::MissingCheckpoint { .. }) => {
                    panic!("seed {seed}: retention pruned a negotiated step: {e}")
                }
                Err(e) => panic!("seed {seed}: capped drops must be recoverable: {e}"),
            }
        }
    }
}
