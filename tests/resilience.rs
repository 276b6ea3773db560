//! End-to-end resilience acceptance tests: deterministic fault
//! injection, failure detection instead of deadlock, and
//! checkpoint/restart recovery that is bitwise indistinguishable from a
//! run that never failed.

use std::sync::Arc;
use std::time::Duration;
use trillium_core::driver::{run_distributed_composed, run_distributed_with, RebalanceConfig};
use trillium_core::prelude::*;
use trillium_geometry::voxelize::VoxelizeConfig;
use trillium_geometry::{VascularTree, VascularTreeParams};

const RANKS: u32 = 4;
const STEPS: u64 = 30;

fn vascular() -> Scenario {
    let tree = VascularTree::generate(&VascularTreeParams {
        generations: 4,
        root_radius: 1.2,
        root_length: 7.0,
        ..Default::default()
    });
    Scenario::from_sdf(
        "vascular-resilience",
        Arc::new(tree),
        0.25,
        [16, 16, 16],
        0.06,
        [0.0, 0.0, 0.05],
        1.0,
        VoxelizeConfig::default(),
    )
}

fn pdf_cfg() -> DriverConfig {
    DriverConfig { collect_pdfs: true, ..DriverConfig::default() }
}

fn resilient_cfg(fault: FaultConfig) -> RunConfig {
    RunConfig {
        driver: pdf_cfg(),
        resilience: Some(ResilienceConfig {
            checkpoint_every: 7,
            fault: Some(fault),
            ..ResilienceConfig::default()
        }),
        ..RunConfig::default()
    }
}

/// A resilient run of the vascular tree on [`RANKS`] ranks.
fn run_resilient(probes: &[[i64; 3]], cfg: &RunConfig) -> Result<RunResult, RecoveryError> {
    run_distributed_composed(&vascular(), RANKS, 1, STEPS, probes, cfg)
}

/// The headline acceptance: a 4-rank vascular run in which one rank
/// crashes at step N rolls the cohort back to the last consistent
/// checkpoint and replays to a final state bitwise identical to a run
/// that never failed — probes, PDFs and mass all agree exactly.
#[test]
fn rank_crash_recovers_bitwise_identical_to_unfaulted_run() {
    let probes: Vec<[i64; 3]> = vec![[8, 8, 4], [10, 9, 8]];
    let truth = run_distributed_with(&vascular(), RANKS, 1, STEPS, &probes, pdf_cfg());
    assert!(!truth.has_nan());

    let rc = resilient_cfg(FaultConfig::new(42).with_crash(2, 17));
    let res = run_resilient(&probes, &rc).expect("clean resilient run");

    assert_eq!(res.recoveries(), 1, "the injected crash must trigger exactly one recovery");
    assert!(res.replayed_steps() > 0, "rollback must replay the lost window");
    assert_eq!(truth.pdf_dump(), res.pdf_dump(), "recovered PDFs differ from ground truth");
    assert_eq!(truth.probes(), res.probes(), "recovered probes differ from ground truth");
    assert_eq!(truth.mass_drift().to_bits(), res.mass_drift().to_bits(), "mass accounting differs");
}

/// Determinism of the failure itself: running the identical fault seed
/// twice produces the identical failure trace, event for event — the
/// property that makes a distributed failure debuggable by replay.
#[test]
fn same_fault_seed_reproduces_identical_failure_trace() {
    let fault = FaultConfig::new(1234)
        .with_crash(1, 11)
        .with_drops(0.02)
        .with_reordering(0.05, 2)
        .with_fault_cap(8);
    let a = run_resilient(&[], &resilient_cfg(fault.clone())).expect("capped faults recover");
    let b = run_resilient(&[], &resilient_cfg(fault)).expect("capped faults recover");
    let (ta, tb) = (a.failure_trace(), b.failure_trace());
    assert!(!ta.is_empty(), "the fault plan must have injected something");
    assert_eq!(ta, tb, "failure traces diverge across reruns of the same seed");
    assert_eq!(a.recoveries(), b.recoveries());
    assert_eq!(a.replayed_steps(), b.replayed_steps());
    assert_eq!(a.pdf_dump(), b.pdf_dump());
}

/// Message-level faults (drops and reordering, capped so the network
/// eventually runs clean) are also survived exactly: timeouts detect
/// the lost messages, the cohort rolls back, and the replayed run
/// matches the unfaulted reference.
#[test]
fn dropped_and_reordered_messages_recover_exactly() {
    let truth = run_distributed_with(&vascular(), RANKS, 1, STEPS, &[], pdf_cfg());
    let mut rc = resilient_cfg(
        FaultConfig::new(9).with_drops(0.01).with_reordering(0.04, 3).with_fault_cap(6),
    );
    // Drops are detected by timeout; keep it short so the test is fast.
    rc.resilience.as_mut().unwrap().step_timeout = Duration::from_secs(2);
    let res = run_resilient(&[], &rc).expect("capped faults are recoverable");
    assert_eq!(truth.pdf_dump(), res.pdf_dump());
    assert!(res.mass_drift().abs() < 1e-9);
    assert!(!res.has_nan());
}

/// Regression for the silent-deadlock failure mode: a 4-rank run in
/// which rank 2 panics mid-step must complete — survivors observing the
/// failure as an error — within a wall-clock budget enforced by a
/// test-side watchdog, instead of hanging forever in a blocking receive.
#[test]
fn rank_panic_surfaces_as_error_within_watchdog_budget() {
    use trillium_comm::{CommError, World};
    let (tx, rx) = std::sync::mpsc::channel();
    let guard = std::thread::spawn(move || {
        let results = World::run_fallible(4, None, |mut comm| {
            let rank = comm.rank();
            for step in 0..10u64 {
                if rank == 2 && step == 3 {
                    panic!("simulated hard failure on rank 2");
                }
                // Ring exchange: everyone sends, then blocks receiving.
                comm.send((rank + 1) % 4, step, vec![rank as u8]);
                match comm.recv_result((rank + 3) % 4, step) {
                    Ok(_) => {}
                    Err(e) => return Err::<(), CommError>(e),
                }
            }
            Ok(())
        });
        tx.send(results).unwrap();
    });
    let results = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("deadlock: survivors did not observe the dead rank within 30 s");
    guard.join().unwrap();
    assert!(results[2].as_ref().unwrap_err().contains("simulated hard failure"));
    // Rank 3 receives directly from the dead rank and must name it. The
    // upstream survivors observe the failure as a *cascade*: each one's
    // ring predecessor errors out and departs, so they report whichever
    // departed peer they were blocked on — but they must all error, not
    // hang.
    let rank3 = results[3].as_ref().expect("survivor must not panic");
    assert_eq!(*rank3, Err(CommError::RankDown(2)), "rank 3 must see the failed rank");
    for rank in [0usize, 1] {
        let observed = results[rank].as_ref().expect("survivor must not panic");
        assert!(
            matches!(observed, Err(CommError::RankDown(_))),
            "rank {rank} must observe the failure cascade, not hang: {observed:?}"
        );
    }
}

/// Both driver schedules compose with recovery: the overlapped
/// resilient run under a crash equals the synchronous resilient run
/// under the same crash, and both equal the unfaulted reference.
#[test]
fn overlap_and_sync_resilient_schedules_agree_under_faults() {
    let truth = run_distributed_with(&vascular(), RANKS, 1, STEPS, &[], pdf_cfg());
    let fault = FaultConfig::new(77).with_crash(3, 9);
    let sync = run_resilient(&[], &resilient_cfg(fault.clone())).expect("capped faults recover");
    let mut over_cfg = resilient_cfg(fault);
    over_cfg.driver.overlap = true;
    let over = run_resilient(&[], &over_cfg).expect("capped faults are recoverable");
    assert_eq!(truth.pdf_dump(), sync.pdf_dump());
    assert_eq!(truth.pdf_dump(), over.pdf_dump());
    assert_eq!(sync.recoveries(), over.recoveries());
}

/// The skewed cavity of the rebalance suites (7 of 8 blocks on rank 0)
/// under all three choices at once: overlapped steps, a rebalance hook
/// that migrates at step 10 (epochs of 5, hysteresis 2), a resilience
/// hook checkpointing every 4.
fn composed_cfg(fault: FaultConfig) -> (Scenario, RunConfig) {
    let cfg = RunConfig {
        driver: DriverConfig { overlap: true, ..pdf_cfg() },
        rebalance: Some(RebalanceConfig {
            every_n_steps: 5,
            threshold: 1.3,
            hysteresis: 2,
            cooldown_epochs: 0,
            ..RebalanceConfig::default()
        }),
        resilience: Some(ResilienceConfig {
            checkpoint_every: 4,
            step_timeout: Duration::from_millis(500),
            recovery_timeout: Duration::from_secs(5),
            fault: Some(fault),
            ..ResilienceConfig::default()
        }),
    };
    (Scenario::lid_driven_cavity(16, 2, 0.05, 0.08).with_skewed_balance(0.9), cfg)
}

/// Overlapped + rebalanced + resilient, with the crash injected right
/// *after* a migration round: rank 1 dies at step 11, the newest common
/// checkpoint (step 8) predates the step-10 migration, so the rollback
/// must put the blocks back under the owner assignment the checkpoint
/// was taken under before it replays — and the replay migrates again.
/// The end state is the plain synchronous run's, bit for bit.
#[test]
fn composed_schedule_recovers_bitwise_from_a_crash_after_a_migration() {
    let (scenario, cfg) = composed_cfg(FaultConfig::new(5).with_crash(1, 11));
    let probes: Vec<[i64; 3]> = vec![[1, 1, 1], [8, 8, 14], [15, 15, 15]];
    let truth = run_distributed_with(&scenario, 2, 1, STEPS, &probes, pdf_cfg());
    let res = run_distributed_composed(&scenario, 2, 1, STEPS, &probes, &cfg)
        .expect("a single crash is recoverable");
    assert_eq!(res.recoveries(), 1, "the injected crash must cause one rollback");
    assert!(
        res.rebalance_count() >= 2,
        "expected a migration round before the crash and one in the replay, got {}",
        res.rebalance_count()
    );
    assert!(res.total_migrations() > 0);
    assert_eq!(truth.pdf_dump(), res.pdf_dump(), "composed recovery deviates from the plain run");
    assert_eq!(truth.probes(), res.probes(), "probes must follow their blocks through it all");
}

/// No composition may hang: under capped message drops — which now also
/// hit the rebalance collectives and migration payloads — every seed
/// must come back, within the watchdog budget, either converged (bitwise
/// equal to the plain run) or with a typed [`RecoveryError`].
#[test]
fn composed_schedule_drop_seed_scan_terminates_typed() {
    let (tx, rx) = std::sync::mpsc::channel();
    let guard = std::thread::spawn(move || {
        let (scenario, _) = composed_cfg(FaultConfig::new(0));
        let truth = run_distributed_with(&scenario, 2, 1, STEPS, &[], pdf_cfg());
        let mut rollbacks = 0;
        for seed in 0..8u64 {
            let (_, cfg) = composed_cfg(FaultConfig::new(seed).with_drops(0.03).with_fault_cap(3));
            match run_distributed_composed(&scenario, 2, 1, STEPS, &[], &cfg) {
                Ok(res) => {
                    assert_eq!(truth.pdf_dump(), res.pdf_dump(), "seed {seed} diverged");
                    println!(
                        "seed {seed}: {} rollbacks, {} blocks migrated",
                        res.recoveries(),
                        res.total_migrations()
                    );
                    rollbacks += res.recoveries();
                }
                Err(e) => println!("seed {seed}: typed failure: {e}"),
            }
        }
        assert!(rollbacks > 0, "no drop ever landed; the scan is vacuous");
        tx.send(()).unwrap();
    });
    rx.recv_timeout(Duration::from_secs(120))
        .expect("a composed run hung (or panicked) instead of returning");
    guard.join().unwrap();
}
