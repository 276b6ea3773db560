//! Driver re-entrancy: the distributed entry points hold no
//! process-global state, so one process can run many simulations —
//! sequentially or concurrently, through the classic `run_distributed_*`
//! wrappers or the per-rank `World::connect` + `drive_rank` API the job
//! service builds on. Every run must be bitwise identical to the same
//! run executed alone, and each run's observability must account only
//! for its own cohort's traffic.

use trillium_comm::World;
use trillium_core::driver::{drive_rank, plan_run, run_distributed_with};
use trillium_core::prelude::*;
use trillium_obs::SpanKind;

fn cavity() -> Scenario {
    Scenario::lid_driven_cavity(16, 2, 0.05, 0.08)
}

fn channel() -> Scenario {
    Scenario::channel_with_obstacle([32, 16, 16], [2, 1, 1], 0.06, 0.05, 0.2)
}

const STEPS: u64 = 12;

fn overlapped_pdfs() -> DriverConfig {
    DriverConfig { collect_pdfs: true, overlap: true, ..DriverConfig::default() }
}

fn run(s: &Scenario) -> RunResult {
    run_distributed_with(s, 2, 1, STEPS, &[], overlapped_pdfs())
}

/// Deterministic per-rank observability fingerprint: span counts plus
/// the comm counters folded into the metrics. Any cross-job bleed —
/// a recorder shared between runs, a message delivered into the wrong
/// cohort — shifts these.
fn obs_fingerprint(r: &RunResult) -> Vec<(u32, [u64; SpanKind::COUNT], u64, u64)> {
    r.ranks
        .iter()
        .map(|rr| {
            let o = rr.obs.as_ref().expect("timing obs is on by default");
            (
                rr.rank,
                o.counts,
                o.metrics.counter("comm.messages_sent"),
                o.metrics.counter("comm.bytes_sent"),
            )
        })
        .collect()
}

#[test]
fn two_sequential_runs_in_one_process_match_their_solo_baselines() {
    let (cav, chan) = (cavity(), channel());
    let cav_solo = run(&cav);
    let chan_solo = run(&chan);
    // Second invocations, same process, after unrelated runs already
    // created and tore down whole worlds.
    let cav_again = run(&cav);
    let chan_again = run(&chan);
    assert_eq!(cav_solo.pdf_dump(), cav_again.pdf_dump());
    assert_eq!(chan_solo.pdf_dump(), chan_again.pdf_dump());
    assert_eq!(obs_fingerprint(&cav_solo), obs_fingerprint(&cav_again));
    assert_eq!(obs_fingerprint(&chan_solo), obs_fingerprint(&chan_again));
}

#[test]
fn two_concurrent_runs_are_bitwise_identical_to_solo_with_no_metric_bleed() {
    let (cav, chan) = (cavity(), channel());
    let cav_solo = run(&cav);
    let chan_solo = run(&chan);

    // Two distinct cohorts with overlapped schedules, racing in one
    // process. Each spawns its own 2-rank world.
    let (cav_conc, chan_conc) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run(&cav));
        let b = scope.spawn(|| run(&chan));
        (a.join().expect("cavity run panicked"), b.join().expect("channel run panicked"))
    });

    assert_eq!(cav_solo.pdf_dump(), cav_conc.pdf_dump(), "concurrent cavity diverged from solo");
    assert_eq!(chan_solo.pdf_dump(), chan_conc.pdf_dump(), "concurrent channel diverged from solo");
    // No cross-job metric bleed: every rank recorder saw exactly the
    // spans and comm traffic of its own run.
    assert_eq!(obs_fingerprint(&cav_solo), obs_fingerprint(&cav_conc));
    assert_eq!(obs_fingerprint(&chan_solo), obs_fingerprint(&chan_conc));
}

/// The job-service path: caller-owned communicator meshes from
/// `World::connect`, one `plan_run` per job, `drive_rank` per rank on
/// plain threads — two cohorts running concurrently, no `World::run`
/// involved.
#[test]
fn manual_cohorts_via_connect_and_drive_rank_match_solo() {
    let (cav, chan) = (cavity(), channel());
    let cav_solo = run(&cav);
    let chan_solo = run(&chan);

    let launch = |scenario: &Scenario| -> RunResult {
        let plan = plan_run(scenario, 2);
        let cfg = RunConfig { driver: overlapped_pdfs(), ..RunConfig::default() };
        let comms = World::connect(2, None);
        let ranks = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let (plan, cfg) = (&plan, &cfg);
                    scope.spawn(move || {
                        drive_rank(comm, plan, scenario, 1, STEPS, &[], cfg).expect("no faults")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
        });
        RunResult { steps: STEPS, ranks }
    };

    let (cav_manual, chan_manual) = std::thread::scope(|scope| {
        let a = scope.spawn(|| launch(&cav));
        let b = scope.spawn(|| launch(&chan));
        (a.join().expect("cavity cohort panicked"), b.join().expect("channel cohort panicked"))
    });

    assert_eq!(cav_solo.pdf_dump(), cav_manual.pdf_dump());
    assert_eq!(chan_solo.pdf_dump(), chan_manual.pdf_dump());
    assert_eq!(obs_fingerprint(&cav_solo), obs_fingerprint(&cav_manual));
    assert_eq!(obs_fingerprint(&chan_solo), obs_fingerprint(&chan_manual));
}
