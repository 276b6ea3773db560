//! Integration test of the runtime rebalance subsystem: a deliberately
//! skewed 2-rank run must detect the measured imbalance, migrate at
//! least one block (PDF state and all), conserve mass, and end with a
//! strictly better max/avg load ratio than the same run without
//! rebalancing.

use trillium_core::driver::{
    run_distributed_composed, run_distributed_with, DriverConfig, RebalanceConfig,
};
use trillium_core::prelude::*;

/// A synchronous run of `scenario` under the rebalance hook.
fn run_rebalanced(
    scenario: &Scenario,
    ranks: u32,
    steps: u64,
    probes: &[[i64; 3]],
    rebalance: RebalanceConfig,
) -> RunResult {
    let cfg = RunConfig { rebalance: Some(rebalance), ..RunConfig::default() };
    run_distributed_composed(scenario, ranks, 1, steps, probes, &cfg).expect("unfaulted run")
}

/// 8 blocks on 2 ranks with ~90 % of the workload on rank 0 (7 blocks
/// against 1).
fn skewed_scenario() -> Scenario {
    Scenario::lid_driven_cavity(16, 2, 0.06, 0.08).with_skewed_balance(0.9)
}

const STEPS: u64 = 40;

fn rebalance_cfg() -> RebalanceConfig {
    RebalanceConfig {
        every_n_steps: 5,
        threshold: 1.3,
        hysteresis: 2,
        ..RebalanceConfig::default()
    }
}

#[test]
fn skewed_run_migrates_and_improves_balance() {
    // Baseline: identical skewed run, monitoring only (infinite threshold
    // means the detector never fires, so nothing ever moves).
    let baseline = run_rebalanced(
        &skewed_scenario(),
        2,
        STEPS,
        &[],
        RebalanceConfig { every_n_steps: 5, ..RebalanceConfig::monitor_only() },
    );
    assert_eq!(baseline.total_migrations(), 0);
    let baseline_ratio = baseline.final_load_ratio().expect("baseline measured no epochs");
    assert!(
        baseline_ratio > 1.4,
        "skewed setup should measure heavy imbalance, got {baseline_ratio}"
    );

    let result = run_rebalanced(&skewed_scenario(), 2, STEPS, &[], rebalance_cfg());

    // At least one block physically moved between ranks.
    assert!(result.total_migrations() >= 1, "no migration happened");
    assert!(result.rebalance_count() >= 1);

    // Migration moved state bit-for-bit: global mass is conserved to
    // round-off and nothing went non-finite.
    assert!(!result.has_nan());
    assert!(result.mass_drift().abs() <= 1e-10, "mass drift {} exceeds 1e-10", result.mass_drift());

    // Every cell was swept every step, no matter who owned its block.
    assert_eq!(result.total_stats().cells, 16 * 16 * 16 * STEPS);

    // The measured load ratio at the end beats the do-nothing baseline.
    let final_ratio = result.final_load_ratio().expect("rebalanced run measured no epochs");
    assert!(
        final_ratio < baseline_ratio,
        "final ratio {final_ratio} not better than baseline {baseline_ratio}"
    );

    // The history shows the trigger path: imbalanced epochs first, then a
    // migration round.
    let history = result.imbalance_history();
    assert!(history.len() == (STEPS / 5) as usize);
    let first_migrating_epoch = result.ranks[0]
        .rebalance
        .as_ref()
        .unwrap()
        .epochs
        .iter()
        .position(|e| e.migrated > 0)
        .expect("no epoch migrated");
    assert!(first_migrating_epoch >= 1, "hysteresis of 2 cannot fire on the first epoch");
}

#[test]
fn rebalanced_physics_matches_unbalanced_run() {
    // Rebalancing only moves blocks between ranks; the numbers computed
    // each step must be unaffected. Compare total mass against a plain
    // run of the same scenario.
    let plain = run_distributed(&skewed_scenario(), 2, 1, STEPS);
    let rebalanced = run_rebalanced(&skewed_scenario(), 2, STEPS, &[], rebalance_cfg());
    let mass = |r: &RunResult| -> f64 { r.ranks.iter().map(|x| x.mass_final).sum() };
    // Per-block masses are bit-identical; only the rank-wise summation
    // order differs, so allow round-off.
    let (a, b) = (mass(&plain), mass(&rebalanced));
    assert!(
        ((a - b) / a).abs() < 1e-13,
        "block migration changed the computed physics: {a} vs {b}"
    );
}

/// Probes follow their blocks: the rebalanced loop used to report no
/// probes at all. Every probe — including ones in blocks that changed
/// owner mid-run — must come back with exactly the velocity the plain
/// synchronous run reports.
#[test]
fn probes_survive_migrations_bitwise() {
    let probes: Vec<[i64; 3]> = vec![[1, 1, 1], [8, 8, 14], [7, 8, 8], [15, 15, 15], [0, 15, 8]];
    let plain =
        run_distributed_with(&skewed_scenario(), 2, 1, STEPS, &probes, DriverConfig::default());
    let rebalanced = run_rebalanced(&skewed_scenario(), 2, STEPS, &probes, rebalance_cfg());
    assert!(rebalanced.total_migrations() >= 1, "no migration happened");
    assert_eq!(plain.probes().len(), probes.len());
    assert_eq!(plain.probes(), rebalanced.probes());
}

#[test]
fn invalid_plan_entries_are_skipped_not_fatal() {
    // A hand-built plan carrying one valid migration plus two defective
    // ones (unknown block, owner mismatch). The transfer protocol used
    // to panic on the bad entries; it must now execute the valid move
    // and count the rest as skipped — symmetrically on every rank, so
    // nobody waits for a transfer that will never be sent.
    use trillium_comm::World;
    use trillium_core::migrate::execute_migrations;
    use trillium_rebalance::{BlockRecord, Migration, PlanMethod, RebalancePlan};

    let scenario = skewed_scenario();
    let run_plan = plan_run(&scenario, 2);

    let mut records: Vec<BlockRecord> = run_plan
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
    records.sort_by_key(|r| r.id);
    let victim = records.iter().find(|r| r.owner == 0).expect("rank 0 owns blocks").id;
    let foreign = records.iter().find(|r| r.owner == 1).expect("rank 1 owns blocks").id;
    let migrations = vec![
        Migration { id: victim, from: 0, to: 1 },
        // Unknown block: no record carries this id.
        Migration { id: (1 << 40) + 12345, from: 0, to: 1 },
        // Owner mismatch: the record says rank 1 holds it.
        Migration { id: foreign, from: 0, to: 1 },
    ];
    let assignment = records.iter().map(|r| if r.id == victim { 1 } else { r.owner }).collect();
    let plan = RebalancePlan {
        records,
        assignment,
        migrations,
        method: PlanMethod::NoOp,
        old_ratio: 1.0,
        new_ratio: 1.0,
    };

    let results = World::run(2, |comm| {
        let mut lp = RankLoop::new(comm, &run_plan, &scenario, 1, DriverConfig::default());
        let stats = execute_migrations(&mut lp, &plan, None).expect("valid entries execute");
        (stats, lp.blocks().len())
    });

    let (s0, n0) = results[0];
    let (s1, n1) = results[1];
    assert_eq!(s0.sent, 1, "the valid migration must execute");
    assert_eq!(s0.skipped, 2, "both defective entries must be skipped");
    assert_eq!(s1.received, 1);
    assert_eq!(s1.skipped, 0, "skips count only on the named source rank");
    assert_eq!(n0 + n1, 8, "no block may vanish");
    assert_eq!(n1, run_plan.views[1].blocks.len() + 1, "rank 1 gained exactly the valid block");
}

#[test]
fn balanced_run_stays_correct_with_rebalancer_armed() {
    // A well-balanced cavity under the armed rebalancer: whatever the
    // detector decides under machine noise, the run must stay correct.
    let s = Scenario::lid_driven_cavity(16, 2, 0.06, 0.08);
    let r = run_rebalanced(&s, 4, 30, &[], RebalanceConfig::default());
    assert!(!r.has_nan());
    assert!(r.mass_drift().abs() <= 1e-10);
    assert_eq!(r.total_stats().cells, 16 * 16 * 16 * 30);
    assert!(r.final_load_ratio().is_some());
}
