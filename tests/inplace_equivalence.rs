//! The in-place (AA-pattern) tier's correctness contract: every driver
//! schedule must produce PDFs bitwise identical to the two-field pull
//! reference — synchronous, overlapped, rebalanced on either of them
//! (with real block migrations), and resilient under injected faults. The single-buffer
//! update touches the field layer (parity-mapped accessors), the kernels,
//! ghost exchange, checkpointing and migration; this test pins the whole
//! stack at once.

use std::sync::Arc;
use trillium_core::driver::{
    plan_run, run_distributed_composed, run_distributed_with, DriverConfig, RebalanceConfig,
    RunConfig,
};
use trillium_core::pipeline::setup_domain;
use trillium_core::prelude::*;
use trillium_field::flags::FlagOps;
use trillium_geometry::{VascularTree, VascularTreeParams};

const STEPS: u64 = 24;

fn cavity(kernel: KernelChoice) -> Scenario {
    Scenario::lid_driven_cavity(16, 2, 0.05, 0.08).with_kernel(kernel)
}

fn pdf_cfg(overlap: bool) -> DriverConfig {
    DriverConfig { overlap, collect_pdfs: true, ..DriverConfig::default() }
}

/// A channel with a pressure outlet and a carved obstacle block between
/// two dense ones. Anti-bounce-back at the outlet reads all 19 PDFs of
/// the fluid cell beside it; once the flow there stops being uniform
/// (step 23 on this channel), an overlapped in-place step that let its
/// interior core touch those PDFs before the ghost boundary sweep
/// differs from pull.
fn obstacle_channel(kernel: KernelChoice) -> Scenario {
    Scenario::channel_with_obstacle([24, 8, 8], [3, 1, 1], 0.08, 0.04, 0.18).with_kernel(kernel)
}

/// A small vessel tree through the set-up pipeline, every block carved:
/// a velocity inlet cap, pressure outlet caps and a voxelised curved wall,
/// the `vascular_sparse` path in miniature.
fn vessel_tree(kernel: KernelChoice) -> Scenario {
    let tree = VascularTree::generate(&VascularTreeParams {
        generations: 2,
        segments_per_branch: 2,
        root_radius: 1.2,
        root_length: 6.0,
        tortuosity: 0.2,
        ..Default::default()
    });
    let setup = setup_domain(
        "vessel-tree",
        Arc::new(tree),
        0.3,
        [8, 8, 8],
        1,
        Balancer::Morton,
        0.08,
        [0.0, 0.0, 0.04],
    );
    setup.scenario.with_kernel(kernel)
}

/// The in-place run of `scenario` on `n` ranks for each count of
/// `steps` and each schedule, against the synchronous one-rank pull run.
fn assert_inplace_matches_pull(scenario: fn(KernelChoice) -> Scenario, ranks: &[u32], steps: u64) {
    for steps in [steps, steps + 1] {
        let dump = |k: KernelChoice, n: u32, overlap: bool| {
            run_distributed_with(&scenario(k), n, 1, steps, &[], pdf_cfg(overlap)).pdf_dump()
        };
        let reference = dump(KernelChoice::Pull, 1, false);
        for &n in ranks {
            for overlap in [false, true] {
                let name = scenario(KernelChoice::InPlace).name;
                assert!(
                    reference == dump(KernelChoice::InPlace, n, overlap),
                    "{name} in place, overlap={overlap}, {n} ranks, {steps} steps"
                );
            }
        }
    }
}

/// Synchronous and overlapped schedules: the in-place tier must match
/// the synchronous pull reference bit for bit, odd and even step counts
/// alike (the final storage parity differs between them), on the cavity
/// and on the pressure-outlet channel, on one rank and on several.
#[test]
fn inplace_matches_pull_on_sync_and_overlapped_schedules() {
    assert_inplace_matches_pull(cavity, &[4], STEPS);
    assert_inplace_matches_pull(obstacle_channel, &[1, 3], 40);
}

/// The same gate on a carved vessel tree: every block stores a row table
/// and runs in place, and the run matches the synchronous one-rank pull
/// run bit for bit on both schedules, odd and even step counts, on one
/// rank and on three.
#[test]
fn inplace_matches_pull_on_a_carved_vessel_tree() {
    let s = vessel_tree(KernelChoice::InPlace);
    let blocks: Vec<BlockSim> =
        plan_run(&s, 3).views.iter().flat_map(|v| &v.blocks).map(|lb| s.build_block(lb)).collect();
    assert!(blocks.len() >= 6, "{} blocks", blocks.len());
    assert!(blocks.iter().all(|b| b.src.rows().is_some() && b.scheme == UpdateScheme::InPlace));
    assert_inplace_matches_pull(vessel_tree, &[1, 3], 30);
}

/// The rebalance hook migrates whole in-place blocks (single-buffer
/// wire format, parity byte included) and must still end bitwise equal
/// to the pull reference, whatever the migration history was — under
/// the synchronous and the overlapped schedule alike.
#[test]
fn inplace_matches_pull_under_rebalancing_migrations() {
    let reference =
        run_distributed_with(&cavity(KernelChoice::Pull), 2, 1, STEPS, &[], pdf_cfg(false));
    for overlap in [false, true] {
        let run = |k: KernelChoice| {
            let cfg = RunConfig {
                driver: pdf_cfg(overlap),
                rebalance: Some(RebalanceConfig {
                    every_n_steps: 5,
                    threshold: 1.3,
                    hysteresis: 2,
                    ..RebalanceConfig::default()
                }),
                ..RunConfig::default()
            };
            run_distributed_composed(&cavity(k).with_skewed_balance(0.9), 2, 1, STEPS, &[], &cfg)
                .expect("unfaulted run")
        };
        let (pull, inplace) = (run(KernelChoice::Pull), run(KernelChoice::InPlace));
        assert!(
            inplace.total_migrations() > 0,
            "overlap={overlap}: the skewed assignment must trigger at least one migration"
        );
        assert_eq!(reference.pdf_dump(), pull.pdf_dump(), "rebalanced pull, overlap={overlap}");
        assert_eq!(
            reference.pdf_dump(),
            inplace.pdf_dump(),
            "rebalanced in-place, overlap={overlap}"
        );
    }
}

/// The resilient schedule: in-place blocks checkpoint one buffer plus a
/// parity byte; a crash mid-run must roll back and replay to the exact
/// pull-reference state.
#[test]
fn inplace_matches_pull_through_fault_recovery() {
    let reference =
        run_distributed_with(&cavity(KernelChoice::Pull), 4, 1, STEPS, &[], pdf_cfg(false));
    let resilient = |rc: ResilienceConfig| {
        let cfg =
            RunConfig { driver: pdf_cfg(false), resilience: Some(rc), ..RunConfig::default() };
        run_distributed_composed(&cavity(KernelChoice::InPlace), 4, 1, STEPS, &[], &cfg)
    };
    let res = resilient(ResilienceConfig {
        checkpoint_every: 5,
        fault: Some(FaultConfig::new(11).with_crash(1, 13)),
        ..ResilienceConfig::default()
    })
    .expect("single crash is recoverable");
    assert_eq!(res.recoveries(), 1, "the injected crash must cause one rollback");
    // The rollback restored a step-10 checkpoint whose in-place blocks
    // were serialized as a single buffer with even parity; replay through
    // odd parities must still land exactly on the reference.
    assert_eq!(reference.pdf_dump(), res.pdf_dump());

    // And a clean resilient in-place run (checkpointing only, no faults)
    // is bitwise identical too.
    let clean = resilient(ResilienceConfig { checkpoint_every: 7, ..ResilienceConfig::default() })
        .expect("clean run");
    assert_eq!(reference.pdf_dump(), clean.pdf_dump());
}

/// The von Kármán cylinder runs the scheme the run asks for on every
/// block: the dense blocks whose only `OBSTACLE` cells are ghost cells
/// and the carved cylinder blocks alike run in place. The PDFs and the
/// cylinder's force series equal the pull run's bit for bit, for every
/// operator the wake is run with, under both schedules and at both final
/// parities.
#[test]
fn von_karman_in_place_matches_pull_with_forces() {
    let scenario = |op: Collision| {
        Scenario::von_karman([64, 32, 2], [8, 4, 2], 0.02, 0.05, 16.0).with_collision(op)
    };
    let trt = scenario(Collision::Trt);
    let blocks: Vec<BlockSim> = (plan_run(&trt, 2).views.iter())
        .flat_map(|v| &v.blocks)
        .map(|lb| trt.build_block(lb))
        .collect();
    assert!(blocks.iter().all(|b| b.scheme == UpdateScheme::InPlace && b.dst.data().is_empty()));
    let obstacle = |b: &&BlockSim| {
        b.shape
            .with_ghosts()
            .iter()
            .any(|(x, y, z)| b.flags.flags(x, y, z).intersects(CellFlags::OBSTACLE))
    };
    let carved = |b: &&BlockSim| b.src.rows().is_some();
    let dense_with_obstacle = blocks.iter().filter(obstacle).filter(|b| !carved(b)).count();
    assert_eq!(dense_with_obstacle, 12, "dense in-place blocks with OBSTACLE ghost cells");
    let carved_cylinder = blocks.iter().filter(obstacle).filter(carved).count();
    assert_eq!(carved_cylinder, 8, "carved in-place cylinder blocks");

    let bits = |f: Vec<[f64; 3]>| f.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>();
    for op in [Collision::Trt, Collision::Mrt, Collision::MrtLes] {
        for steps in [7, 8] {
            for overlap in [false, true] {
                let cfg = pdf_cfg(overlap).with_force_mask(CellFlags::OBSTACLE);
                let run = |s: Scenario| run_distributed_with(&s, 2, 1, steps, &[], cfg);
                let inplace = run(scenario(op));
                let pull = run(scenario(op).with_kernel(KernelChoice::Pull));
                let what = format!("{op:?}, {steps} steps, overlap={overlap}");
                assert!(inplace.force_series().iter().any(|f| f[0] != 0.0), "{what}: no drag");
                assert!(pull.pdf_dump() == inplace.pdf_dump(), "{what}: PDFs");
                assert_eq!(bits(pull.force_series()), bits(inplace.force_series()), "{what}");
            }
        }
    }
}
