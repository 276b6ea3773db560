//! Distributed block migration: acting on a [`RebalancePlan`].
//!
//! The plan (computed identically on every rank by
//! `trillium_rebalance::plan_rebalance`) names blocks and their new
//! owners; this module moves the actual simulation state. A migrating
//! block is serialized completely — flag field and PDF state, via the
//! `TCP2` wire format of [`crate::checkpoint`] — so the receiver never
//! re-voxelizes geometry or re-runs initialization. After the transfers,
//! every rank updates its copy of the global owner assignment and
//! rebuilds its `DistributedForest` view, which refreshes the ghost
//! exchange schedule (links may now cross different rank boundaries).
//!
//! Message tags live above the ghost-exchange tag space (`< 2^47`) and
//! below the collective tag space (`>= 2^48`), so migration traffic can
//! never be confused with either.

use crate::blocksim::BlockSim;
use crate::checkpoint::{restore_block_full, save_block_full, RestoreError};
use crate::driver::RankLoop;
use std::collections::{HashMap, HashSet};
use std::time::Duration;
use trillium_comm::CommError;
use trillium_rebalance::{Migration, RebalancePlan};

/// Base of the migration tag space: ghost tags are `packed_id << 5 | dir`
/// with `packed_id < 2^42` (so below `2^47`), collectives start at
/// `2^48`.
pub const MIGRATION_TAG_BASE: u64 = 1 << 47;

/// Tag of the message carrying block `id` (packed) to its new owner.
fn migration_tag(packed_id: u64) -> Result<u64, MigrationError> {
    if packed_id >= MIGRATION_TAG_BASE {
        return Err(MigrationError::IdTooLarge(packed_id));
    }
    Ok(MIGRATION_TAG_BASE | packed_id)
}

/// Why a rebalance epoch or its migration round could not complete. The
/// loop state is torn afterwards (blocks may already be on the wire):
/// a resilient run rolls a [`MigrationError::Comm`] back, everything
/// else ends the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationError {
    /// A receive of the epoch (load all-reduce, record all-gather, block
    /// payload) failed or ran past its deadline.
    Comm(CommError),
    /// The packed block id does not fit the migration tag space.
    IdTooLarge(u64),
    /// A valid migration names this rank as source of a block it does
    /// not hold.
    NotHeld(u64),
    /// The new assignment gives this rank a block that neither stayed
    /// nor arrives by a migration.
    Unplanned(u64),
    /// A received block payload failed to deserialize.
    Restore {
        /// Packed id of the block.
        id: u64,
        /// The decode failure.
        error: RestoreError,
    },
    /// Blocks this rank kept are missing from its rebuilt view.
    Orphaned(usize),
}

impl From<CommError> for MigrationError {
    fn from(e: CommError) -> Self {
        MigrationError::Comm(e)
    }
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::Comm(e) => write!(f, "rebalance epoch: {e}"),
            MigrationError::IdTooLarge(id) => write!(f, "block {id} exceeds the migration tags"),
            MigrationError::NotHeld(id) => write!(f, "block {id} to send is not held here"),
            MigrationError::Unplanned(id) => write!(f, "block {id} appeared without a migration"),
            MigrationError::Restore { id, error } => {
                write!(f, "migrated block {id} failed to restore: {error:?}")
            }
            MigrationError::Orphaned(n) => write!(f, "{n} owned blocks missing from the new view"),
        }
    }
}

impl std::error::Error for MigrationError {}

/// Outcome of one migration round on this rank.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Blocks this rank sent away.
    pub sent: u32,
    /// Blocks this rank received.
    pub received: u32,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Migrations naming this rank as source that were skipped because
    /// they failed [`RebalancePlan::validate_migration`]. Every rank
    /// validates against the same plan, so the skip set is symmetric —
    /// no receiver waits for a transfer its sender refused.
    pub skipped: u32,
}

/// Executes `plan` on this rank's loop state: sends away blocks it no
/// longer owns, receives blocks it gained, and puts the state under the
/// new owner assignment — view (and with it the ghost schedule), block
/// vector and index all in the new order.
///
/// Every rank must call this with the same plan in the same step, like a
/// collective. Sends are posted before any receive, so the exchange
/// cannot deadlock regardless of the migration pattern; with a
/// `deadline` every payload receive is bounded by it.
///
/// Migrations that fail [`RebalancePlan::validate_migration`] are
/// *skipped*, not executed (counted in [`MigrationStats::skipped`]) —
/// and the corresponding ownership change is suppressed too, so an
/// invalid entry in a hand-built or decoded plan degrades to a no-op
/// instead of an error or a stranded receiver. Validation is a pure
/// function of the shared plan, so every rank skips the same set.
pub fn execute_migrations(
    lp: &mut RankLoop,
    plan: &RebalancePlan,
    deadline: Option<Duration>,
) -> Result<MigrationStats, MigrationError> {
    let rank = lp.comm.rank();
    let mut stats = MigrationStats::default();
    let valid: HashSet<u64> = plan
        .migrations
        .iter()
        .filter(|m| plan.validate_migration(m).is_ok())
        .map(|m| m.id)
        .collect();

    // Phase 1: take the block vector apart by id and post the outgoing
    // blocks.
    let mut held: HashMap<u64, BlockSim> =
        lp.view.blocks.iter().map(|b| b.id.pack()).zip(lp.blocks.drain(..)).collect();
    for m in plan.migrations.iter().filter(|m| m.from == rank) {
        if !valid.contains(&m.id) {
            stats.skipped += 1;
            continue;
        }
        let payload = save_block_full(&held.remove(&m.id).ok_or(MigrationError::NotHeld(m.id))?);
        stats.sent += 1;
        stats.bytes_sent += payload.len() as u64;
        lp.comm.send(m.to, migration_tag(m.id)?, payload);
    }

    // Phase 2: apply the new assignment to the global forest and rebuild
    // this rank's view. `distribute` recomputes neighbor links, so ghost
    // messages for the next step go to the right ranks automatically.
    // Ownership changes whose transfer was skipped are suppressed: the
    // block stays with its current owner and the view stays consistent
    // with where the state actually lives.
    let new_owner: HashMap<u64, u32> = plan
        .records
        .iter()
        .zip(&plan.assignment)
        .filter(|(r, &a)| a == r.owner || valid.contains(&r.id))
        .map(|(r, &a)| (r.id, a))
        .collect();
    let owners: Vec<u32> = lp
        .forest
        .blocks
        .iter()
        .map(|b| new_owner.get(&b.id.pack()).copied().unwrap_or(b.rank))
        .collect();
    lp.set_owners(&owners);

    // Phase 3: rebuild the block vector in the new view's order from the
    // blocks that stayed and the ones that arrive.
    let incoming: HashMap<u64, &Migration> = plan
        .migrations
        .iter()
        .filter(|m| m.to == rank && valid.contains(&m.id))
        .map(|m| (m.id, m))
        .collect();
    for lb in &lp.view.blocks {
        let id = lb.id.pack();
        let sim = match held.remove(&id) {
            Some(sim) => sim,
            None => {
                let m = incoming.get(&id).ok_or(MigrationError::Unplanned(id))?;
                let (_, data) =
                    lp.comm.recv_any_within(&[(m.from, migration_tag(id)?)], deadline)?;
                stats.received += 1;
                let mut sim = restore_block_full(&data, lp.scenario.boundary)
                    .map_err(|error| MigrationError::Restore { id, error })?;
                lp.scenario.stamp(&mut sim);
                sim
            }
        };
        lp.blocks.push(sim);
    }
    if !held.is_empty() {
        return Err(MigrationError::Orphaned(held.len()));
    }
    lp.blocks_replaced();
    Ok(stats)
}
