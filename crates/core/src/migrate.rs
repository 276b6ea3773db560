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
use std::collections::HashMap;
use std::time::Duration;
use trillium_comm::CommError;
use trillium_rebalance::RebalancePlan;

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
    /// The plan names this rank as source of a block it does not hold.
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
}

/// Executes `plan` on this rank's loop state: sends away blocks it no
/// longer owns, receives blocks it gained, and puts the state under the
/// new owner assignment — view (and with it the ghost schedule), block
/// vector and index all in the new order.
///
/// Every rank must call this with the same plan in the same step, like a
/// collective. Sends are posted before any receive, so the exchange
/// cannot deadlock regardless of the migration pattern; with a
/// `deadline` every payload receive is bounded by it. A plan whose
/// records disagree with where the blocks are is a typed error on the
/// rank that notices: [`MigrationError::NotHeld`] on a named source that
/// lacks the block, [`MigrationError::Unplanned`] or
/// [`MigrationError::Orphaned`] where the new view and the held blocks
/// differ.
pub fn execute_migrations(
    lp: &mut RankLoop,
    plan: &RebalancePlan,
    deadline: Option<Duration>,
) -> Result<MigrationStats, MigrationError> {
    let rank = lp.comm.rank();
    let mut stats = MigrationStats::default();

    // Phase 1: take the block vector apart by id and post the outgoing
    // blocks.
    let mut held: HashMap<u64, BlockSim> =
        lp.view.blocks.iter().map(|b| b.id.pack()).zip(lp.blocks.drain(..)).collect();
    for m in plan.migrations().filter(|m| m.from == rank) {
        let payload = save_block_full(&held.remove(&m.id).ok_or(MigrationError::NotHeld(m.id))?);
        stats.sent += 1;
        lp.comm.send(m.to, migration_tag(m.id)?, payload);
    }

    // Phase 2: apply the new assignment to the global forest and rebuild
    // this rank's view. `distribute` recomputes neighbor links, so ghost
    // messages for the next step go to the right ranks automatically.
    let new_owner: HashMap<u64, u32> =
        plan.records.iter().map(|r| r.id).zip(plan.assignment.iter().copied()).collect();
    let owners: Vec<u32> = lp
        .forest
        .blocks
        .iter()
        .map(|b| new_owner.get(&b.id.pack()).copied().unwrap_or(b.rank))
        .collect();
    lp.set_owners(&owners);

    // Phase 3: rebuild the block vector in the new view's order from the
    // blocks that stayed and the ones that arrive.
    let incoming: HashMap<u64, u32> =
        plan.migrations().filter(|m| m.to == rank).map(|m| (m.id, m.from)).collect();
    for lb in &lp.view.blocks {
        let id = lb.id.pack();
        let sim = match held.remove(&id) {
            Some(sim) => sim,
            None => {
                let &from = incoming.get(&id).ok_or(MigrationError::Unplanned(id))?;
                let (_, data) = lp.comm.recv_any_within(&[(from, migration_tag(id)?)], deadline)?;
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
