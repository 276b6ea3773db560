//! Integration tests of the unified observability layer.
//!
//! The span layer claims its timing categories are *disjoint*: kernel,
//! communication work, boundary, and exposed stall never overlap, so
//! their per-rank sum fits inside the rank's wall time and the fraction
//! metrics have a meaningful denominator. These tests pin that
//! invariant on a skewed 4-rank run under all four schedules (sync,
//! overlapped, resilient sync, resilient overlapped), check that the
//! folded `RankResult` timings are exactly the span totals, and verify
//! the chrome-trace export: events reproduce the accumulated totals
//! within float tolerance and the JSON round-trips through
//! `serde_json::from_str`.

use std::time::Duration;
use trillium_core::driver::{
    plan_run, run_distributed_composed, run_distributed_with, RebalanceConfig, RunResult,
};
use trillium_core::prelude::*;
use trillium_obs::SpanKind;

/// Slack for comparing span sums against wall time: the categories are
/// measured with the same monotonic clock, so only accumulation
/// round-off separates them.
const TOL: f64 = 1e-6;

/// 8 blocks on 4 ranks with 70 % of them on rank 0 — enough skew that
/// the fast ranks demonstrably wait on the slow one.
fn skewed() -> Scenario {
    Scenario::lid_driven_cavity(16, 2, 0.06, 0.08).with_skewed_balance(0.7)
}

/// 64 blocks on 4 ranks with the same skew: rank 0's 45 blocks include
/// some whose every neighbour is on rank 0 too, so they post no receive
/// and the overlapped schedule sweeps them while messages are in flight.
/// (On [`skewed`] every block has a remote link, and nothing is hidden.)
fn skewed_with_inner_blocks() -> Scenario {
    Scenario::lid_driven_cavity(32, 4, 0.06, 0.08).with_skewed_balance(0.7)
}

const STEPS: u64 = 12;

/// The timing-counter invariants every schedule must satisfy.
fn check_invariants(r: &RunResult, schedule: &str) {
    assert_eq!(r.ranks.len(), 4, "{schedule}: expected a 4-rank run");
    for rr in &r.ranks {
        let rank = rr.rank;
        let obs =
            rr.obs.as_ref().unwrap_or_else(|| panic!("{schedule} rank {rank}: no obs snapshot"));

        // Disjoint categories fit in the measured wall time.
        assert!(rr.wall_time > 0.0, "{schedule} rank {rank}: no wall time");
        assert!(
            rr.busy_time() <= rr.wall_time + TOL,
            "{schedule} rank {rank}: kernel + boundary + comm + stall = {} exceeds wall {}",
            rr.busy_time(),
            rr.wall_time
        );

        // Set-up and teardown are named: one block-building span, one
        // wait for the other ranks' builds, one reduction pass before
        // step 0 and one after the last step, and together with the time
        // loop they fit in the wall time.
        assert_eq!(obs.count(SpanKind::BuildBlocks), 1, "{schedule} rank {rank}");
        assert_eq!(obs.count(SpanKind::SetupWait), 1, "{schedule} rank {rank}");
        assert_eq!(obs.count(SpanKind::Reduce), 2, "{schedule} rank {rank}");
        let named = obs.total(SpanKind::BuildBlocks)
            + obs.total(SpanKind::SetupWait)
            + obs.total(SpanKind::Reduce)
            + obs.total(SpanKind::Step);
        assert!(
            named <= rr.wall_time + TOL,
            "{schedule} rank {rank}: build + wait + reduce + step = {named} exceeds wall {}",
            rr.wall_time
        );

        // The RankResult timing fields are exactly the folded span totals.
        let kernel = obs.total(SpanKind::Kernel);
        assert_eq!(rr.kernel_time, kernel, "{schedule} rank {rank}: kernel fold");
        assert_eq!(
            rr.comm_time,
            obs.total(SpanKind::GhostPack)
                + obs.total(SpanKind::GhostDrain)
                + obs.total(SpanKind::GhostCopy),
            "{schedule} rank {rank}: comm fold"
        );
        assert_eq!(rr.boundary_time, obs.total(SpanKind::Boundary), "{schedule} rank {rank}");
        assert_eq!(rr.ghost_stall_time, obs.total(SpanKind::Stall), "{schedule} rank {rank}");
        if rr.num_blocks > 0 {
            assert!(rr.kernel_time > 0.0, "{schedule} rank {rank}: kernel never ran");
            assert!(rr.comm_time > 0.0, "{schedule} rank {rank}: no exchange work");
        }

        // Every executed step opened exactly one Step span and one
        // histogram observation (resilient replays add more, never less).
        let step_spans = obs.count(SpanKind::Step);
        assert!(step_spans >= STEPS, "{schedule} rank {rank}: {step_spans} < {STEPS} step spans");
        let hist = obs
            .metrics
            .histogram("driver.step_seconds")
            .unwrap_or_else(|| panic!("{schedule} rank {rank}: no step histogram"));
        assert_eq!(hist.count, step_spans, "{schedule} rank {rank}: histogram/step mismatch");
        assert!(hist.sum <= rr.wall_time + TOL, "{schedule} rank {rank}: steps exceed wall");

        // Transport counters flowed into the metrics registry (a rank
        // the skew left without blocks legitimately sends nothing).
        if rr.num_blocks > 0 {
            assert!(obs.metrics.counter("comm.messages_sent") > 0, "{schedule} rank {rank}");
            assert!(obs.metrics.counter("comm.bytes_sent") > 0, "{schedule} rank {rank}");
        }
    }
    assert!(r.metrics().counter("comm.messages_sent") > 0, "{schedule}: no traffic at all");
}

#[test]
fn sync_schedule_keeps_timing_invariants() {
    let r = run_distributed_with(&skewed(), 4, 1, STEPS, &[], DriverConfig::default());
    check_invariants(&r, "sync");
    // Fraction metrics are finite and sensible even on fast runs.
    assert!(r.stall_fraction().is_finite() && r.stall_fraction() >= 0.0);
    assert!(r.comm_fraction() > 0.0 && r.comm_fraction() < 1.0);
}

#[test]
fn overlapped_schedule_keeps_timing_invariants_and_hides_stall() {
    let r = run_distributed_with(
        &skewed_with_inner_blocks(),
        4,
        1,
        STEPS,
        &[],
        DriverConfig::overlapped(),
    );
    check_invariants(&r, "overlapped");
    // The overlapped schedule's structural claim, now derivable from the
    // span layer: it never blocks while runnable work remains.
    for rr in &r.ranks {
        assert_eq!(rr.ghost_stall_time, 0.0, "rank {}: overlap exposed stall", rr.rank);
        assert_eq!(rr.obs.as_ref().unwrap().count(SpanKind::Stall), 0);
    }
    assert!(r.overlap_hidden() > 0.0, "no communication was hidden");
}

#[test]
fn resilient_schedules_keep_timing_invariants() {
    for overlap in [false, true] {
        let schedule = if overlap { "resilient-overlapped" } else { "resilient-sync" };
        let cfg = RunConfig {
            driver: DriverConfig { overlap, ..DriverConfig::default() },
            resilience: Some(ResilienceConfig {
                checkpoint_every: 5,
                step_timeout: Duration::from_secs(5),
                ..ResilienceConfig::default()
            }),
            ..RunConfig::default()
        };
        let res = run_distributed_composed(&skewed(), 4, 1, STEPS, &[], &cfg).expect("recoverable");
        check_invariants(&res, schedule);
        // Checkpoint spans were recorded (initial snapshot has no span;
        // agreements at steps 5, 10 and 12 do).
        for rr in &res.ranks {
            let obs = rr.obs.as_ref().unwrap();
            assert!(obs.count(SpanKind::Checkpoint) >= 3, "{schedule}: missing checkpoints");
        }
        // The resilience ledger is mirrored into the metrics registry.
        let m = res.metrics();
        assert_eq!(
            m.counter("resilience.checkpoints"),
            res.ranks.len() as u64 * u64::from(res.checkpoints())
        );
        assert_eq!(m.counter("resilience.rollbacks"), 0);
    }
}

#[test]
fn faulted_resilient_run_counts_rollbacks_and_fault_events() {
    let rc = ResilienceConfig {
        checkpoint_every: 4,
        step_timeout: Duration::from_secs(2),
        fault: Some(FaultConfig::new(7).with_crash(2, 6)),
        ..ResilienceConfig::default()
    };
    let res = trillium_core::recovery::run_distributed_resilient(&skewed(), 4, 1, STEPS, &[], &rc)
        .expect("recoverable");
    assert_eq!(res.run.recoveries(), 1);
    let m = res.run.metrics();
    assert_eq!(m.counter("fault.crashes"), 1, "the injected crash must be counted");
    assert_eq!(m.counter("resilience.rollbacks"), 4, "every rank rolls back once");
    assert_eq!(m.counter("resilience.replayed_steps"), res.run.replayed_steps());
    // Recovery spans were recorded on every rank.
    for rr in &res.run.ranks {
        assert!(rr.obs.as_ref().unwrap().count(SpanKind::Recovery) >= 1);
    }
}

#[test]
fn rebalanced_run_records_migration_metrics() {
    let cfg = RunConfig {
        rebalance: Some(RebalanceConfig {
            every_n_steps: 5,
            threshold: 1.3,
            hysteresis: 2,
            ..RebalanceConfig::default()
        }),
        ..RunConfig::default()
    };
    let r = run_distributed_composed(
        &Scenario::lid_driven_cavity(16, 2, 0.06, 0.08).with_skewed_balance(0.9),
        2,
        1,
        40,
        &[],
        &cfg,
    )
    .expect("unfaulted run");
    assert!(r.total_migrations() >= 1, "skewed run must migrate");
    let m = r.metrics();
    assert!(m.counter("rebalance.rounds") >= 1);
    assert_eq!(m.counter("rebalance.migrations_in"), m.counter("rebalance.migrations_out"));
    assert!(m.counter("rebalance.migrations_in") as u32 >= 1);
    // The boundary work gauges follow the blocks: all 8 blocks of the
    // 2×2×2 cavity are corner blocks with equally many links, so after
    // the migrations the gauge over the *final* block count agrees
    // between the ranks only if it was refreshed.
    let per_block = |name: &str| -> Vec<f64> {
        let of = |rr: &RankResult| rr.obs.as_ref().unwrap().metrics.gauge(name).unwrap();
        r.ranks.iter().map(|rr| of(rr) / rr.num_blocks as f64).collect()
    };
    let links = per_block("boundary.links");
    assert!(links[0] > 0.0 && links[0] == links[1], "links per block: {links:?}");
    // So does the memory gauge: one in-place PDF field (19 x 10³ x 8 B)
    // per block, whichever rank the block ended on.
    assert_eq!(per_block("mem.pdf_bytes"), [152_000.0; 2]);
    // Every surviving block published its measured cost as a gauge.
    let gauges = m.gauges.iter().filter(|(n, _)| n.starts_with("rebalance.block_cost.")).count();
    assert_eq!(gauges, 8, "one cost gauge per block");
    for rr in &r.ranks {
        let obs = rr.obs.as_ref().unwrap();
        assert!(obs.count(SpanKind::RebalanceEpoch) >= 1);
    }
}

/// `mem.pdf_bytes` is the PDF storage of a rank's blocks: one field per
/// in-place block, two per pull block, dense or carved.
#[test]
fn pdf_bytes_gauge_counts_one_field_in_place_and_two_under_pull() {
    let gauge = |s: Scenario| -> Vec<f64> {
        let r = run_distributed_with(&s, 2, 1, 1, &[], DriverConfig::default());
        r.ranks
            .iter()
            .map(|rr| rr.obs.as_ref().unwrap().metrics.gauge("mem.pdf_bytes").unwrap())
            .collect()
    };
    // 8 blocks of 8³ cells, 4 per rank; a field is 19 x 10³ x 8 B.
    let cavity = || Scenario::lid_driven_cavity(16, 2, 0.06, 0.08);
    assert_eq!(gauge(cavity()), [608_000.0; 2]);
    assert_eq!(gauge(cavity().with_kernel(KernelChoice::Pull)), [1_216_000.0; 2]);
    // Two dense blocks and the carved obstacle block between them, which
    // stores the rows its sweep reads: 992 of its 10³ cells (no sweep
    // reads the eight corners of its ghost box), 150 784 B a field.
    let channel = || Scenario::channel_with_obstacle([24, 8, 8], [3, 1, 1], 0.08, 0.04, 0.18);
    let sum = |g: Vec<f64>| g.iter().sum::<f64>();
    assert_eq!(sum(gauge(channel())), 2.0 * 152_000.0 + 150_784.0);
    assert_eq!(
        sum(gauge(channel().with_kernel(KernelChoice::Pull))),
        4.0 * 152_000.0 + 2.0 * 150_784.0
    );
}

/// `comm.local_values` / `comm.local_rows`: the PDF values and x-rows
/// same-rank copies write, per rank, and the full-slab values of the
/// same links from the plan. A dense block receives whole slabs; a
/// carved block only the ghost values its sweep reads.
fn local_copy_counts(s: &Scenario, steps: u64) -> Vec<[u64; 3]> {
    use trillium_blockforest::{BlockLink, NEIGHBOR_DIRS};
    let plan = plan_run(s, 2);
    let table = trillium_comm::CrossingTable::new::<trillium_lattice::D3Q19>();
    let shape = trillium_field::Shape::new(s.cells[0], s.cells[1], s.cells[2], 1);
    let r = run_distributed_with(s, 2, 1, steps, &[], DriverConfig::overlapped());
    r.ranks
        .iter()
        .zip(&plan.views)
        .map(|(rr, view)| {
            let slab: usize = (view.blocks.iter())
                .flat_map(|b| b.links.iter().zip(NEIGHBOR_DIRS))
                .filter(|(link, _)| matches!(link, BlockLink::Local(_)))
                .map(|(_, d)| shape.ghost_slab(d, 1).num_cells() * table.qs(d).len())
                .sum();
            let m = &rr.obs.as_ref().unwrap().metrics;
            let count = |name| m.counter(name);
            [count("comm.local_values"), count("comm.local_rows"), slab as u64 * steps]
        })
        .collect()
}

/// Exact same-rank copy counts over 5 steps on 2 ranks: on the obstacle
/// channel the carved blocks' lists move fewer values than full slabs,
/// on the all-dense cavity exactly the full slabs.
#[test]
fn local_copy_counts_are_pinned() {
    let channel = Scenario::channel_with_obstacle([32, 16, 16], [4, 2, 2], 0.08, 0.04, 0.18);
    let got = local_copy_counts(&channel, 5);
    assert_eq!(got, [[36_420, 15_960, 39_360]; 2]);
    assert!(got.iter().all(|[values, _, slab]| values < slab));
    let cavity = Scenario::lid_driven_cavity(32, 2, 0.06, 0.08);
    let got = local_copy_counts(&cavity, 5);
    assert_eq!(got, [[51_520, 27_520, 51_520]; 2]);
}

/// `comm.packed_values` / `comm.unpacked_values`: the PDF values remote
/// links gather into messages and scatter from them, per rank, beside the
/// whole-slab values of the same links, over `steps` steps on 2 ranks.
fn remote_counts(s: &Scenario, steps: u64) -> Vec<[u64; 3]> {
    use trillium_blockforest::{BlockLink, NEIGHBOR_DIRS};
    let plan = plan_run(s, 2);
    let table = trillium_comm::CrossingTable::new::<trillium_lattice::D3Q19>();
    let shape = trillium_field::Shape::new(s.cells[0], s.cells[1], s.cells[2], 1);
    let r = run_distributed_with(s, 2, 1, steps, &[], DriverConfig::default());
    r.ranks
        .iter()
        .zip(&plan.views)
        .map(|(rr, view)| {
            let slab: usize = (view.blocks.iter())
                .flat_map(|b| b.links.iter().zip(NEIGHBOR_DIRS))
                .filter(|(link, _)| matches!(link, BlockLink::Remote(..)))
                .map(|(_, d)| shape.boundary_slab(d, 1).num_cells() * table.qs(d).len())
                .sum();
            let m = &rr.obs.as_ref().unwrap().metrics;
            let count = |name| m.counter(name);
            [count("comm.packed_values"), count("comm.unpacked_values"), slab as u64 * steps]
        })
        .collect()
}

/// Exact remote gather and scatter counts over 5 steps on 2 ranks, next
/// to the same-rank ones: every rank packs the whole slabs of its remote
/// links. On the obstacle channel carved blocks receive remote messages,
/// so fewer values are unpacked than packed; on the all-dense cavity
/// exactly as many.
#[test]
fn remote_halves_counts_are_pinned() {
    let channel = Scenario::channel_with_obstacle([32, 16, 16], [4, 2, 2], 0.08, 0.04, 0.18);
    let got = remote_counts(&channel, 5);
    assert_eq!(got, [[6_720, 5_480, 6_720]; 2]);
    assert!(got.iter().all(|[packed, unpacked, slab]| packed == slab && unpacked < packed));
    let cavity = Scenario::lid_driven_cavity(32, 2, 0.06, 0.08);
    let got = remote_counts(&cavity, 5);
    assert_eq!(got, [[26_240, 26_240, 26_240]; 2]);
    assert!(got.iter().all(|[packed, unpacked, slab]| packed == slab && unpacked == packed));
}

/// `boundary.pressure_links` / `boundary.pressure_cells` per rank on the
/// obstacle channel, against a brute-force count over each block's
/// flags: the links from a `PRESSURE | PRESSURE_ALT` wall cell into a
/// fluid cell, and the fluid cells with at least one. Only the rank
/// holding the outlet face (16 x 16 cells) has any.
#[test]
fn pressure_link_counts_are_pinned() {
    use trillium_field::{CellFlags, FlagOps};
    use trillium_lattice::d3q19::C;
    let channel = Scenario::channel_with_obstacle([32, 16, 16], [4, 2, 2], 0.08, 0.04, 0.18);
    let pressure = CellFlags(CellFlags::PRESSURE.0 | CellFlags::PRESSURE_ALT.0);
    let plan = plan_run(&channel, 2);
    let brute = plan.views.iter().map(|view| {
        let (mut links, mut cells) = (0, 0);
        for lb in &view.blocks {
            let flags = channel.block_flags(lb);
            for (x, y, z) in flags.shape().interior().iter() {
                let from =
                    |c: &[i8; 3]| flags.flags(x - c[0] as i32, y - c[1] as i32, z - c[2] as i32);
                if flags.flags(x, y, z).is_fluid() {
                    let n = C[1..].iter().filter(|c| from(c).intersects(pressure)).count();
                    (links, cells) = (links + n, cells + (n > 0) as usize);
                }
            }
        }
        [links as f64, cells as f64]
    });
    let brute: Vec<_> = brute.collect();
    let r = run_distributed_with(&channel, 2, 1, 1, &[], DriverConfig::default());
    let got: Vec<_> = (r.ranks.iter())
        .map(|rr| {
            let gauge = |name| rr.obs.as_ref().unwrap().metrics.gauge(name).unwrap();
            [gauge("boundary.pressure_links"), gauge("boundary.pressure_cells")]
        })
        .collect();
    assert_eq!(got, brute);
    assert_eq!(got, [[0.0, 0.0], [1_216.0, 256.0]]);
}

/// Both schedules sweep through one window. On one rank no message is
/// remote, so the overlapped step is the synchronous one: the same span
/// kinds, opened as often — every block swept whole under `Kernel` once
/// per step, nothing hidden.
#[test]
fn one_rank_schedules_record_the_same_spans() {
    let s = Scenario::lid_driven_cavity(16, 2, 0.06, 0.08);
    let spans = |cfg: DriverConfig| {
        let r = run_distributed_with(&s, 1, 1, STEPS, &[], cfg);
        assert_eq!(r.overlap_hidden(), 0.0);
        r.ranks[0].obs.clone().unwrap()
    };
    let (sync, over) = (spans(DriverConfig::default()), spans(DriverConfig::overlapped()));
    for kind in SpanKind::ALL {
        assert_eq!(sync.count(kind), over.count(kind), "{} spans", kind.name());
    }
    assert_eq!(over.count(SpanKind::Kernel), STEPS);
}

/// Each block takes its whole step once per step under either schedule.
/// On 2 ranks every block of the 16³ cavity in 8 blocks has a remote
/// link, so the overlapped step has nothing to sweep before its drain:
/// it opens one `Boundary` and one `Kernel` span per step, as the
/// synchronous one does, hides nothing, and ends bitwise where it ends.
#[test]
fn two_rank_schedules_sweep_each_block_once() {
    let (s, steps) = (Scenario::lid_driven_cavity(16, 2, 0.06, 0.08), 6);
    let run = |overlap: bool| {
        let cfg = DriverConfig { overlap, collect_pdfs: true, ..DriverConfig::default() };
        run_distributed_with(&s, 2, 1, steps, &[], cfg)
    };
    let (sync, over) = (run(false), run(true));
    for (a, b) in sync.ranks.iter().zip(&over.ranks) {
        let (a, b) = (a.obs.as_ref().unwrap(), b.obs.as_ref().unwrap());
        for kind in [SpanKind::Boundary, SpanKind::Kernel] {
            assert_eq!(a.count(kind), steps, "sync {} spans", kind.name());
            assert_eq!(b.count(kind), a.count(kind), "overlapped {} spans", kind.name());
        }
    }
    assert_eq!(over.overlap_hidden(), 0.0);
    let bits = |r: &RunResult| -> Vec<(u64, Vec<u64>)> {
        r.pdf_dump()
            .into_iter()
            .map(|(id, v)| (id, v.iter().map(|x| x.to_bits()).collect()))
            .collect()
    };
    assert!(!sync.pdf_dump().is_empty());
    assert!(bits(&sync) == bits(&over), "overlapped PDFs deviate from sync");
}

#[test]
fn trace_events_reproduce_rank_timings_and_round_trip() {
    let cfg = DriverConfig::overlapped().with_trace();
    let r = run_distributed_with(&skewed(), 4, 1, STEPS, &[], cfg);
    for rr in &r.ranks {
        let obs = rr.obs.as_ref().unwrap();
        assert!(!obs.events.is_empty(), "rank {}: trace mode captured nothing", rr.rank);
        // Per-rank span sums from the event stream reproduce the
        // RankResult timings within float tolerance (events store µs).
        let kernel = obs.trace_total(SpanKind::Kernel);
        assert!((kernel - rr.kernel_time).abs() < 1e-9 * obs.events.len() as f64 + 1e-12);
        let comm = obs.trace_total(SpanKind::GhostPack)
            + obs.trace_total(SpanKind::GhostDrain)
            + obs.trace_total(SpanKind::GhostCopy);
        assert!((comm - rr.comm_time).abs() < 1e-9 * obs.events.len() as f64 + 1e-12);
        assert!(
            (obs.trace_total(SpanKind::Boundary) - rr.boundary_time).abs()
                < 1e-9 * obs.events.len() as f64 + 1e-12
        );
        // The wait for the other ranks' builds is one span outside the
        // loop: events are recorded as spans close, so it closes before
        // the first step does, and it opens before that step opens.
        let wait: Vec<_> =
            obs.events.iter().filter(|e| e.name == SpanKind::SetupWait.name()).collect();
        assert_eq!(wait.len(), 1, "rank {}", rr.rank);
        let first = |name| obs.events.iter().position(|e| e.name == name).unwrap();
        let step = &obs.events[first(SpanKind::Step.name())];
        assert!(first(SpanKind::SetupWait.name()) < first(SpanKind::Step.name()));
        assert!(wait[0].ts_us <= step.ts_us, "rank {}: the wait is inside step 0", rr.rank);
    }

    // The export is valid chrome-trace JSON and survives a parse/print
    // round trip through the serde_json shim.
    let v = r.chrome_trace();
    let text = v.to_string();
    let parsed = serde_json::from_str(&text).expect("chrome trace must be valid JSON");
    assert_eq!(parsed.to_string(), text, "round trip must be stable");

    let events = parsed.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents");
    // One metadata lane per rank, X slices for everything else.
    let lanes: Vec<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .map(|e| e.get("tid").and_then(|t| t.as_u64()).unwrap())
        .collect();
    assert_eq!(lanes, vec![0, 1, 2, 3], "one named lane per rank");
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).unwrap();
        assert!(ph == "M" || ph == "X", "unexpected phase {ph}");
        if ph == "X" {
            assert!(e.get("ts").and_then(|t| t.as_f64()).unwrap() >= 0.0);
            assert!(e.get("dur").and_then(|d| d.as_f64()).unwrap() >= 0.0);
            assert!(e.get("args").and_then(|a| a.get("step")).is_some());
        }
    }
}

#[test]
fn disabled_recorder_reports_no_timings_and_no_nan_fractions() {
    let cfg = DriverConfig { obs: trillium_core::ObsConfig::off(), ..DriverConfig::default() };
    let r = run_distributed_with(&skewed(), 4, 1, 4, &[], cfg);
    assert!(!r.has_nan());
    for rr in &r.ranks {
        assert!(rr.obs.is_none(), "disabled recorder must not allocate a snapshot");
        assert_eq!(rr.wall_time, 0.0);
        assert_eq!(rr.busy_time(), 0.0);
    }
    // The zero-guard: fractions come back 0.0, not NaN (the old code
    // divided by a sum that is zero here).
    assert_eq!(r.stall_fraction(), 0.0);
    assert_eq!(r.comm_fraction(), 0.0);
}
