//! The backend abstraction's correctness contract: the portable, AVX2
//! and workgroup backends must produce bitwise identical PDFs on every
//! driver schedule — synchronous, overlapped, rebalanced (with real
//! block migrations) and resilient under injected faults — and under
//! both update schemes. Bitwise equality is what makes a backend a pure
//! *cost* choice: the heterogeneous placement planner can move a block
//! between a CPU socket and a workgroup device mid-run, and fault
//! recovery can replay a checkpoint on a different backend, without
//! perturbing the physics by a single ULP.

use trillium_core::driver::{
    run_distributed_composed, run_distributed_with, DriverConfig, RebalanceConfig, RunConfig,
};
use trillium_core::prelude::*;

const STEPS: u64 = 24;

fn cavity(kernel: KernelChoice, backend: BackendKind) -> Scenario {
    Scenario::lid_driven_cavity(16, 2, 0.05, 0.08).with_kernel(kernel).with_backend(backend)
}

fn pdf_cfg(overlap: bool) -> DriverConfig {
    DriverConfig { overlap, collect_pdfs: true, ..DriverConfig::default() }
}

/// Synchronous and overlapped schedules, pull and in-place schemes: all
/// three backends land on the identical PDFs, odd and even step counts
/// alike.
#[test]
fn backends_agree_on_sync_and_overlapped_schedules() {
    for kernel in [KernelChoice::Pull, KernelChoice::InPlace] {
        for steps in [STEPS, STEPS + 1] {
            for overlap in [false, true] {
                let reference = run_distributed_with(
                    &cavity(kernel, BackendKind::Avx2),
                    4,
                    1,
                    steps,
                    &[],
                    pdf_cfg(overlap),
                );
                for backend in [BackendKind::Portable, BackendKind::Workgroup] {
                    let run = run_distributed_with(
                        &cavity(kernel, backend),
                        4,
                        1,
                        steps,
                        &[],
                        pdf_cfg(overlap),
                    );
                    assert_eq!(
                        reference.pdf_dump(),
                        run.pdf_dump(),
                        "{kernel:?} {backend:?} overlap={overlap} {steps} steps"
                    );
                }
            }
        }
    }
}

/// The rebalance hook migrates blocks between ranks; the received
/// block is re-stamped with the scenario backend, so the run must stay
/// bitwise equal to the sync reference on every backend — rebalancing
/// the synchronous and the overlapped schedule alike.
#[test]
fn backends_agree_under_rebalancing_migrations() {
    let reference = run_distributed_with(
        &cavity(KernelChoice::Pull, BackendKind::Avx2),
        2,
        1,
        STEPS,
        &[],
        pdf_cfg(false),
    );
    for backend in BackendKind::ALL {
        for overlap in [false, true] {
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
            let skewed = cavity(KernelChoice::Pull, backend).with_skewed_balance(0.9);
            let run =
                run_distributed_composed(&skewed, 2, 1, STEPS, &[], &cfg).expect("unfaulted run");
            assert!(
                run.total_migrations() > 0,
                "the skewed assignment must trigger a migration ({backend:?} overlap={overlap})"
            );
            assert_eq!(
                reference.pdf_dump(),
                run.pdf_dump(),
                "rebalanced {backend:?} overlap={overlap}"
            );
        }
    }
}

/// The resilient schedule: checkpoints carry no backend identity (it is
/// scenario-global and re-stamped on restore), so rollback + replay on
/// any backend must land exactly on the reference.
#[test]
fn backends_agree_through_fault_recovery() {
    let reference = run_distributed_with(
        &cavity(KernelChoice::InPlace, BackendKind::Avx2),
        4,
        1,
        STEPS,
        &[],
        pdf_cfg(false),
    );
    for backend in BackendKind::ALL {
        let cfg = RunConfig {
            driver: pdf_cfg(false),
            resilience: Some(ResilienceConfig {
                checkpoint_every: 5,
                fault: Some(FaultConfig::new(11).with_crash(1, 13)),
                ..ResilienceConfig::default()
            }),
            ..RunConfig::default()
        };
        let res = run_distributed_composed(
            &cavity(KernelChoice::InPlace, backend),
            4,
            1,
            STEPS,
            &[],
            &cfg,
        )
        .expect("single crash is recoverable");
        assert_eq!(res.recoveries(), 1, "the injected crash must cause one rollback");
        assert_eq!(reference.pdf_dump(), res.pdf_dump(), "resilient {backend:?}");
    }
}

/// The MRT family runs through backend dispatch too: a short MRT-LES run
/// agrees across backends on the sync schedule.
#[test]
fn backends_agree_with_mrt_les() {
    let scenario = |backend| {
        Scenario::lid_driven_cavity(16, 2, 0.05, 0.08)
            .with_collision(Collision::MrtLes)
            .with_backend(backend)
    };
    let reference =
        run_distributed_with(&scenario(BackendKind::Avx2), 4, 1, STEPS, &[], pdf_cfg(false));
    for backend in [BackendKind::Portable, BackendKind::Workgroup] {
        let run = run_distributed_with(&scenario(backend), 4, 1, STEPS, &[], pdf_cfg(false));
        assert_eq!(reference.pdf_dump(), run.pdf_dump(), "mrt-les {backend:?}");
    }
}

/// A carved vascular tree runs the sparse row-interval sweep, which the
/// AVX2 backend compiles for its own instruction set: under the overlapped
/// schedule on two ranks (core and shell regions clip the spans) it must
/// land on the portable backend's PDFs bit for bit.
#[test]
fn backends_agree_on_a_carved_tree() {
    use std::sync::Arc;
    use trillium_core::pipeline::setup_domain;
    use trillium_geometry::{VascularTree, VascularTreeParams};

    if !trillium_kernels::avx::available() {
        println!("skipped: no AVX2+FMA on this host, both backends would run the portable kernels");
        return;
    }
    let tree = Arc::new(VascularTree::generate(&VascularTreeParams {
        generations: 3,
        segments_per_branch: 2,
        root_radius: 1.2,
        root_length: 6.0,
        tortuosity: 0.2,
        ..Default::default()
    }));
    let run = |backend| {
        let setup = setup_domain(
            "tree-backends",
            tree.clone(),
            0.3,
            [8, 8, 8],
            2,
            Balancer::Graph,
            0.08,
            [0.0, 0.0, 0.04],
        );
        assert!(setup.fluid_fraction() < 0.9, "need partially covered blocks to carve");
        let scenario = setup.scenario.with_backend(backend);
        run_distributed_with(&scenario, 2, 1, STEPS, &[], pdf_cfg(true))
    };
    let portable = run(BackendKind::Portable);
    assert!(!portable.has_nan());
    assert!(
        portable.total_stats().cells > portable.total_stats().fluid_cells,
        "no sparse sweep ran"
    );
    assert_eq!(portable.pdf_dump(), run(BackendKind::Avx2).pdf_dump(), "carved tree, overlapped");
}
