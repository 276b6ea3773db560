//! Regression tests for migrating in-place (AA-pattern) blocks.
//!
//! An in-place block has no send buffer: the storage parity bit on its
//! single PDF field decides how distribution indices map to memory. The
//! migration payload (TCP2, [`trillium_core::checkpoint::save_block_full`])
//! therefore carries a scheme byte — Pull = 0, InPlace even = 1,
//! InPlace odd = 2 — and restoring an odd-parity block as even would
//! silently scramble the PDF mapping on the new owner. These tests pin
//! the scheme byte on the wire and the end-to-end bitwise equivalence
//! of a mid-run odd-parity migration against the unmigrated run.
//!
//! A carved block holds derived state besides its PDFs: the row
//! intervals and the ghost rows its same-rank copies walk. A migrated or
//! recovered block rebuilds them, which the obstacle channel pins.

use trillium_comm::World;
use trillium_core::checkpoint::{save_block_full, RestoreError};
use trillium_core::driver::{run_distributed_composed, run_distributed_with, RebalanceConfig};
use trillium_core::migrate::{execute_migrations, MIGRATION_TAG_BASE};
use trillium_core::prelude::*;
use trillium_rebalance::{BlockRecord, Migration, PlanMethod, RebalancePlan};

/// The hand-built plan every rank executes: the single block of
/// `run_plan` moves from `src` to `dst`.
fn move_only_block(run_plan: &RunPlan, src: u32, dst: u32) -> RebalancePlan {
    let records: Vec<BlockRecord> = run_plan
        .forest
        .blocks
        .iter()
        .map(|b| BlockRecord {
            id: b.id.pack(),
            owner: b.rank,
            coords: [0, 0, 0],
            level: b.id.level(),
            cost: 1.0,
            fluid_cells: 1,
        })
        .collect();
    RebalancePlan {
        assignment: vec![dst],
        migrations: vec![Migration { id: records[0].id, from: src, to: dst }],
        records,
        method: PlanMethod::NoOp,
        old_ratio: 1.0,
        new_ratio: 1.0,
    }
}

/// One 16³ in-place block: no neighbors, so a rank can step it locally
/// (boundary sweep + fused stream–collide) with no ghost exchange.
fn single_block_scenario() -> Scenario {
    Scenario::lid_driven_cavity(16, 1, 0.05, 0.08).with_kernel(KernelChoice::InPlace)
}

/// Offset of the scheme byte in a TCP2 block payload: magic (4) +
/// nx/ny/nz/ghost (4 × 4).
const SCHEME_BYTE_OFFSET: usize = 20;

/// Migrates the single in-place block at *odd* parity mid-run (after 3
/// local steps) from rank 0 to rank 1, finishes the run there, and pins
/// the final serialized state bitwise against the same 6 steps taken
/// without any migration.
#[test]
fn inplace_block_migrated_at_odd_parity_is_bitwise_preserved() {
    let scenario = single_block_scenario();
    let rel = scenario.relaxation;
    let run_plan = plan_run(&scenario, 2);
    // The static balancer picks the owner; the test only needs the other
    // rank as destination.
    let src = run_plan.forest.blocks[0].rank;
    let dst = 1 - src;
    assert_eq!(run_plan.views[src as usize].blocks.len(), 1);

    // Unmigrated reference: 6 steps on one rank.
    let solo = {
        let mut block = scenario.build_block(&run_plan.views[src as usize].blocks[0]);
        for _ in 0..6 {
            block.apply_boundaries();
            block.stream_collide(rel);
        }
        save_block_full(&block)
    };

    let plan = move_only_block(&run_plan, src, dst);
    let results = World::run(2, |comm| {
        let rank = comm.rank();
        let mut lp = RankLoop::new(comm, &run_plan, &scenario, 1, DriverConfig::default());

        // The owner advances the block an odd number of steps, so the
        // parity bit is set when the block goes on the wire.
        if rank == src {
            let block = &mut lp.blocks_mut()[0];
            for _ in 0..3 {
                block.apply_boundaries();
                block.stream_collide(rel);
            }
            assert_eq!(block.scheme, UpdateScheme::InPlace);
            assert!(block.src.parity(), "3 in-place steps must leave odd parity");
            let payload = save_block_full(block);
            assert_eq!(
                payload[SCHEME_BYTE_OFFSET], 2,
                "odd-parity in-place block must serialize scheme byte 2"
            );
        }

        // Every rank executes the same hand-built plan: the block moves
        // from `src` to `dst` mid-run.
        let stats = execute_migrations(&mut lp, &plan, None).expect("the plan is valid");

        if rank == dst {
            assert_eq!(stats.received, 1);
            let block = &mut lp.blocks_mut()[0];
            assert!(
                block.src.parity(),
                "migration dropped the parity bit: the restored block came back even"
            );
            // The arriving block carries the boundary link list a fresh
            // build of the same block has.
            let fresh = scenario.build_block(&run_plan.views[src as usize].blocks[0]);
            assert_eq!(block.boundary_links(), fresh.boundary_links());
            assert!(!block.boundary_links().is_empty());
            for _ in 0..3 {
                block.apply_boundaries();
                block.stream_collide(rel);
            }
            Some(save_block_full(block))
        } else {
            assert_eq!(stats.sent, 1);
            assert!(lp.blocks().is_empty(), "the source rank gave its only block away");
            None
        }
    });

    let migrated = results[dst as usize].clone().expect("the destination rank finished the run");
    assert!(results[src as usize].is_none());
    assert_eq!(
        migrated, solo,
        "3 steps + odd-parity migration + 3 steps must be bitwise identical to 6 solo steps"
    );
}

/// A migration payload cut short on the wire must come back as a typed
/// error on the receiver — it used to be an `expect` on the restore.
#[test]
fn truncated_migration_payload_is_a_typed_error() {
    let scenario = single_block_scenario();
    let run_plan = plan_run(&scenario, 2);
    let src = run_plan.forest.blocks[0].rank;
    let dst = 1 - src;
    let plan = move_only_block(&run_plan, src, dst);
    let id = plan.migrations[0].id;

    let results = World::run(2, |mut comm| {
        if comm.rank() == src {
            // Stand in for the sender: the right tag, half the bytes.
            let block = scenario.build_block(&run_plan.views[src as usize].blocks[0]);
            let mut payload = save_block_full(&block);
            payload.truncate(payload.len() / 2);
            comm.send(dst, MIGRATION_TAG_BASE | id, payload);
            None
        } else {
            let mut lp = RankLoop::new(comm, &run_plan, &scenario, 1, DriverConfig::default());
            Some(execute_migrations(&mut lp, &plan, None))
        }
    });
    assert_eq!(
        results[dst as usize],
        Some(Err(MigrationError::Restore { id, error: RestoreError::Truncated }))
    );
}

/// Driver-level version: a skewed in-place run under the rebalance hook
/// with an odd epoch length, so blocks migrate mid-run at odd parity —
/// on the synchronous and the overlapped schedule. The final PDFs must
/// match the same run without any migration, bit for bit.
#[test]
fn rebalanced_inplace_run_with_odd_epochs_matches_plain_run_bitwise() {
    let scenario = || {
        Scenario::lid_driven_cavity(16, 2, 0.05, 0.08)
            .with_kernel(KernelChoice::InPlace)
            .with_skewed_balance(0.9)
    };
    const STEPS: u64 = 24;
    let pdfs = |overlap| DriverConfig { overlap, collect_pdfs: true, ..DriverConfig::default() };
    let plain = run_distributed_with(&scenario(), 2, 1, STEPS, &[], pdfs(false));
    for overlap in [false, true] {
        let cfg = RunConfig {
            driver: pdfs(overlap),
            rebalance: Some(RebalanceConfig {
                every_n_steps: 3,
                threshold: 1.3,
                hysteresis: 2,
                ..RebalanceConfig::default()
            }),
            ..RunConfig::default()
        };
        let rebalanced =
            run_distributed_composed(&scenario(), 2, 1, STEPS, &[], &cfg).expect("unfaulted run");
        assert!(rebalanced.total_migrations() > 0, "skewed run must migrate (overlap={overlap})");
        assert!(!rebalanced.has_nan());
        assert_eq!(
            plain.pdf_dump(),
            rebalanced.pdf_dump(),
            "mid-run in-place migration changed the computed physics (overlap={overlap})"
        );
    }
}

/// The obstacle channel's carved blocks through a forced migration (a
/// skewed start under the rebalance hook) and through a crash with
/// rollback recovery, at an odd and an even step count, on both
/// schedules: the final PDFs equal the plain run's, bit for bit.
#[test]
fn carved_channel_migrates_and_recovers_bitwise() {
    let scenario = || {
        Scenario::channel_with_obstacle([32, 16, 16], [4, 2, 2], 0.08, 0.04, 0.18)
            .with_skewed_balance(0.9)
    };
    let pdfs = |overlap| DriverConfig { overlap, collect_pdfs: true, ..DriverConfig::default() };
    for steps in [15, 16] {
        let plain = run_distributed_with(&scenario(), 2, 1, steps, &[], pdfs(false));
        assert!(!plain.has_nan());
        for overlap in [false, true] {
            let migrated = RunConfig {
                driver: pdfs(overlap),
                rebalance: Some(RebalanceConfig {
                    every_n_steps: 3,
                    threshold: 1.3,
                    hysteresis: 2,
                    ..RebalanceConfig::default()
                }),
                ..RunConfig::default()
            };
            let r = run_distributed_composed(&scenario(), 2, 1, steps, &[], &migrated)
                .expect("unfaulted run");
            assert!(r.total_migrations() > 0, "the skewed channel must migrate");
            assert_eq!(plain.pdf_dump(), r.pdf_dump(), "migration, {steps} steps, {overlap}");

            let recovered = RunConfig {
                driver: pdfs(overlap),
                resilience: Some(ResilienceConfig {
                    checkpoint_every: 4,
                    fault: Some(FaultConfig::new(7).with_crash(1, 10)),
                    ..ResilienceConfig::default()
                }),
                ..RunConfig::default()
            };
            let r = run_distributed_composed(&scenario(), 2, 1, steps, &[], &recovered)
                .expect("the crash recovers");
            assert_eq!(r.recoveries(), 1);
            assert_eq!(plain.pdf_dump(), r.pdf_dump(), "recovery, {steps} steps, {overlap}");
        }
    }
}
