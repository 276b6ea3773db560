//! Schedule/kernel-invariance gate for the MRT family: the collision
//! operator choice must be orthogonal to *how* the time loop runs. Every
//! driver schedule (sync, overlapped, rebalanced, resilient) and the
//! in-place AA kernel tier must produce bitwise the PDFs of the
//! synchronous pull-scheme reference — for plain MRT and for MRT with
//! the Smagorinsky LES closure. Referenced by `kernels::mrt`'s module
//! docs.
//!
//! Also pins the stability claim that motivates MRT in the paper: a
//! cylinder wake at a relaxation time where SRT blows up within a few
//! hundred steps stays finite under MRT + LES.

use trillium_core::driver::{
    run_distributed_composed, run_distributed_with, DriverConfig, RebalanceConfig, RunConfig,
    RunResult,
};
use trillium_core::recovery::ResilienceConfig;
use trillium_core::scenario::{KernelChoice, Scenario};
use trillium_kernels::Collision;
use trillium_obs::ObsConfig;

const PROCS: u32 = 4;
const STEPS: u64 = 40; // even, so AA-pattern storage is back in natural order

fn assert_bitwise(label: &str, reference: &RunResult, other: &RunResult) {
    let (a, b) = (reference.pdf_dump(), other.pdf_dump());
    assert_eq!(a.len(), b.len(), "{label}: block count differs");
    for ((id_a, pa), (id_b, pb)) in a.iter().zip(&b) {
        assert_eq!(id_a, id_b, "{label}: block ids differ");
        assert_eq!(pa.len(), pb.len(), "{label}: block {id_a} size differs");
        for (q, (x, y)) in pa.iter().zip(pb).enumerate() {
            assert!(x.to_bits() == y.to_bits(), "{label}: block {id_a} slot {q}: {x:e} != {y:e}");
        }
    }
}

fn check_all_schedules(op: Collision) {
    // A flow that exercises interior + boundary + periodic exchange:
    // the quasi-2-D lid-driven cavity (no-slip walls, moving lid,
    // periodic spanwise axis).
    let make = |kernel: KernelChoice| {
        Scenario::lid_driven_cavity_2d(16, 2, 0.02, 0.08).with_collision(op).with_kernel(kernel)
    };
    let plain =
        |collect_pdfs| DriverConfig { collect_pdfs, obs: ObsConfig::off(), ..Default::default() };

    let reference =
        run_distributed_with(&make(KernelChoice::Pull), PROCS, 1, STEPS, &[], plain(true));

    let overlapped = run_distributed_with(
        &make(KernelChoice::Pull),
        PROCS,
        1,
        STEPS,
        &[],
        DriverConfig { overlap: true, ..plain(true) },
    );
    assert_bitwise("overlapped", &reference, &overlapped);

    // Aggressive rebalancing on a deliberately skewed initial assignment
    // so migrations actually fire mid-run, under both step schedules.
    for overlap in [false, true] {
        let cfg = RunConfig {
            driver: DriverConfig { overlap, ..plain(true) },
            rebalance: Some(RebalanceConfig {
                every_n_steps: 5,
                threshold: 1.0,
                hysteresis: 1,
                cooldown_epochs: 1,
                ..Default::default()
            }),
            ..RunConfig::default()
        };
        let skewed = make(KernelChoice::Pull).with_skewed_balance(0.9);
        let rebalanced =
            run_distributed_composed(&skewed, PROCS, 1, STEPS, &[], &cfg).expect("unfaulted run");
        assert!(rebalanced.total_migrations() > 0, "rebalance never fired; gate is vacuous");
        assert_bitwise(&format!("rebalanced, overlap={overlap}"), &reference, &rebalanced);
    }

    let resilient = run_distributed_composed(
        &make(KernelChoice::Pull),
        PROCS,
        1,
        STEPS,
        &[],
        &RunConfig {
            driver: plain(true),
            resilience: Some(ResilienceConfig::default()),
            ..RunConfig::default()
        },
    )
    .expect("clean resilient run");
    assert_bitwise("resilient", &reference, &resilient);

    let inplace =
        run_distributed_with(&make(KernelChoice::InPlace), PROCS, 1, STEPS, &[], plain(true));
    assert_bitwise("in-place", &reference, &inplace);
}

#[test]
fn mrt_is_bitwise_invariant_across_schedules_and_tiers() {
    check_all_schedules(Collision::Mrt);
}

#[test]
fn mrt_les_is_bitwise_invariant_across_schedules_and_tiers() {
    check_all_schedules(Collision::MrtLes);
}

/// The stability pin: an impulsively started cylinder wake at
/// τ_e ≈ 0.524 (ν = 0.008, D = 8, Re = 100). SRT loses stability within
/// a few hundred steps at this sharpness; MRT + LES runs the same
/// configuration to a finite, sane state. This is the regime the
/// validation matrix measures the Strouhal number in (MRT family only —
/// `trillium_bench::validation::is_supported`).
#[test]
fn mrt_les_survives_where_srt_diverges() {
    let make = |op: Collision| {
        Scenario::von_karman([64, 32, 2], [2, 2, 2], 0.008, 0.1, 8.0).with_collision(op)
    };
    let cfg = || DriverConfig { obs: ObsConfig::off(), ..Default::default() };

    // Sane = finite, positive, and bounded by a generous multiple of the
    // uniform-inflow kinetic energy. A blown-up run lands at ±1e200-ish
    // (or NaN) long before the energy overflows to infinity.
    let domain_energy = 0.5 * 0.1 * 0.1 * (64.0 * 32.0 * 2.0);
    let sane = |e: f64| e.is_finite() && e > 0.0 && e < 10.0 * domain_energy;

    let srt = run_distributed_with(&make(Collision::Srt), PROCS, 1, 1000, &[], cfg());
    assert!(
        !sane(srt.kinetic_energy_final()),
        "SRT unexpectedly stable (energy {:e}); the stability pin is vacuous",
        srt.kinetic_energy_final()
    );

    let les = run_distributed_with(&make(Collision::MrtLes), PROCS, 1, 1000, &[], cfg());
    let e = les.kinetic_energy_final();
    assert!(sane(e), "MRT+LES energy {e:e}");
}
