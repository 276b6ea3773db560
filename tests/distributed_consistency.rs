//! Cross-crate integration: distributed runs must be exactly equivalent
//! to serial ones under every decomposition, balancer and thread count,
//! and setup artifacts must survive the file format.

use trillium_blockforest::{distribute, file, morton_balance};
use trillium_core::driver::{run_distributed, run_distributed_with, DriverConfig};
use trillium_core::prelude::*;

/// 27 ranks in a 3×3×3 decomposition against the single-rank reference —
/// exercises every link type (faces, edges) in every orientation.
#[test]
fn twenty_seven_ranks_bitwise_equal() {
    let probes: Vec<[i64; 3]> =
        vec![[0, 0, 0], [17, 17, 17], [9, 8, 7], [5, 12, 9], [17, 0, 9], [6, 6, 6], [11, 12, 13]];
    let r1 = run_distributed_with(
        &Scenario::lid_driven_cavity(18, 1, 0.07, 0.06),
        1,
        1,
        30,
        &probes,
        DriverConfig::default(),
    );
    let r27 = run_distributed_with(
        &Scenario::lid_driven_cavity(18, 3, 0.07, 0.06),
        27,
        1,
        30,
        &probes,
        DriverConfig::default(),
    );
    let (p1, p27) = (r1.probes(), r27.probes());
    assert_eq!(p1.len(), probes.len());
    for ((c1, u1), (c2, u2)) in p1.iter().zip(&p27) {
        assert_eq!(c1, c2);
        assert_eq!(u1, u2, "velocity mismatch at {c1:?}");
    }
}

/// Unbalanced rank counts: 5 ranks over 8 blocks (some ranks own 2
/// blocks, mixing local and remote links on the same rank).
#[test]
fn uneven_rank_block_ratio_equals_reference() {
    let probes: Vec<[i64; 3]> = vec![[2, 3, 4], [12, 13, 14], [8, 8, 8]];
    let r1 = run_distributed_with(
        &Scenario::lid_driven_cavity(16, 1, 0.05, 0.08),
        1,
        1,
        25,
        &probes,
        DriverConfig::default(),
    );
    let r5 = run_distributed_with(
        &Scenario::lid_driven_cavity(16, 2, 0.05, 0.08),
        5,
        1,
        25,
        &probes,
        DriverConfig::default(),
    );
    for ((_, u1), (_, u5)) in r1.probes().iter().zip(&r5.probes()) {
        assert_eq!(u1, u5);
    }
}

/// The channel scenario (sparse blocks from the obstacle, mixed boundary
/// condition types) across decompositions.
#[test]
fn channel_obstacle_decomposition_invariant() {
    // Note: all probes lie in fluid (the obstacle is a radius-3.2 sphere
    // at [16, 8, 8]; solid cells hold meaningless PDF data).
    let probes: Vec<[i64; 3]> = vec![[4, 4, 4], [20, 10, 8], [30, 3, 12], [16, 14, 8]];
    let s1 = Scenario::channel_with_obstacle([32, 16, 16], [1, 1, 1], 0.07, 0.03, 0.2);
    let s8 = Scenario::channel_with_obstacle([32, 16, 16], [2, 2, 2], 0.07, 0.03, 0.2);
    let r1 = run_distributed_with(&s1, 1, 1, 40, &probes, DriverConfig::default());
    let r8 = run_distributed_with(&s8, 8, 1, 40, &probes, DriverConfig::default());
    assert!(!r1.has_nan() && !r8.has_nan());
    for ((c, u1), (_, u8)) in r1.probes().iter().zip(&r8.probes()) {
        for d in 0..3 {
            assert!(
                (u1[d] - u8[d]).abs() < 1e-13,
                "mismatch at {c:?} axis {d}: {} vs {}",
                u1[d],
                u8[d]
            );
        }
    }
    // Identical fluid-cell accounting.
    assert_eq!(r1.total_stats().fluid_cells, r8.total_stats().fluid_cells);
}

/// A forest written to the §2.2 binary format and loaded back drives an
/// identical distribution (the "setup on one machine, simulate on
/// another" workflow).
#[test]
fn forest_file_roundtrip_preserves_distribution() {
    let scenario = Scenario::lid_driven_cavity(24, 2, 0.05, 0.1);
    let mut forest = scenario.make_forest(4);
    morton_balance(&mut forest, 4);
    let data = file::save(&forest);
    let loaded = file::load(&data).expect("load");
    let views_a = distribute(&forest);
    let views_b = distribute(&loaded);
    assert_eq!(views_a.len(), views_b.len());
    for (a, b) in views_a.iter().zip(&views_b) {
        assert_eq!(a.rank, b.rank);
        assert_eq!(a.blocks.len(), b.blocks.len());
        for (ba, bb) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(ba.id, bb.id);
            assert_eq!(ba.coords, bb.coords);
            assert_eq!(ba.links, bb.links);
        }
    }
}

/// Graph-partitioner balancing also yields a correct distributed run
/// (different block-to-rank mapping, same physics).
#[test]
fn graph_balanced_sphere_runs_clean() {
    use std::sync::Arc;
    use trillium_core::pipeline::{setup_domain, Balancer};
    use trillium_geometry::vec3::vec3;
    use trillium_geometry::AnalyticSdf;
    let sdf = Arc::new(AnalyticSdf::Sphere { center: vec3(0.0, 0.0, 0.0), radius: 1.0 });
    let setup = setup_domain("sphere", sdf, 0.09, [8, 8, 8], 3, Balancer::Graph, 0.06, [0.0; 3]);
    let r = run_distributed(&setup.scenario, 3, 1, 15);
    assert!(!r.has_nan());
    assert!(r.mass_drift().abs() < 1e-10, "closed sphere must conserve mass");
    assert!(r.total_stats().fluid_cells > 0);
}

/// The overlapped schedule must be PDF-level bitwise identical to the
/// synchronous reference on a deliberately *skewed* vascular run: 4 ranks
/// with rank 0 statically overloaded, sparse row-interval blocks, and a
/// mix of local and remote links — under both 1 and 4 threads per rank.
/// This is the end-to-end guarantee behind enabling
/// [`DriverConfig::overlap`]: identical physics, different schedule.
#[test]
fn overlapped_skewed_vascular_bitwise_equal() {
    use std::sync::Arc;
    use trillium_core::driver::{run_distributed_with, DriverConfig};
    use trillium_geometry::voxelize::VoxelizeConfig;
    use trillium_geometry::{VascularTree, VascularTreeParams};
    let scenario = || {
        let tree = VascularTree::generate(&VascularTreeParams {
            generations: 4,
            root_radius: 1.2,
            root_length: 7.0,
            ..Default::default()
        });
        Scenario::from_sdf(
            "vascular-overlap",
            Arc::new(tree),
            0.25,
            [16, 16, 16],
            0.06,
            [0.0, 0.0, 0.05],
            1.0,
            VoxelizeConfig::default(),
        )
        .with_skewed_balance(0.7)
    };
    let cfg_sync = DriverConfig { collect_pdfs: true, ..Default::default() };
    let sync = run_distributed_with(&scenario(), 4, 1, 25, &[], cfg_sync);
    assert!(!sync.has_nan());
    let reference = sync.pdf_dump();
    assert!(!reference.is_empty());
    for threads in [1usize, 4] {
        let cfg = DriverConfig { overlap: true, collect_pdfs: true, ..Default::default() };
        let over = run_distributed_with(&scenario(), 4, threads, 25, &[], cfg);
        assert!(!over.has_nan());
        assert_eq!(reference, over.pdf_dump(), "overlap deviates with {threads} threads/rank");
        assert_eq!(sync.total_stats().cells, over.total_stats().cells);
        assert_eq!(sync.total_stats().fluid_cells, over.total_stats().fluid_cells);
        assert!(over.overlap_hidden() > 0.0, "no compute was hidden");
    }
}

/// Hybrid threading (the αPβT configurations) changes nothing about the
/// results, only the execution.
#[test]
fn thread_count_does_not_change_results() {
    let s = Scenario::lid_driven_cavity(16, 2, 0.06, 0.07);
    let probes: Vec<[i64; 3]> = vec![[3, 3, 3], [12, 4, 9]];
    let a = run_distributed_with(&s, 2, 1, 20, &probes, DriverConfig::default());
    let b = run_distributed_with(&s, 2, 4, 20, &probes, DriverConfig::default());
    for ((_, ua), (_, ub)) in a.probes().iter().zip(&b.probes()) {
        assert_eq!(ua, ub);
    }
}

/// A full-state block checkpoint (`save_block_full`) taken mid-run
/// captures *everything* the dynamics depend on: a restored copy stepped
/// in lockstep with the original stays bitwise identical.
#[test]
fn block_checkpoint_roundtrip_resumes_bitwise() {
    use trillium_core::checkpoint::{restore_block_full, save_block_full};
    let s = Scenario::lid_driven_cavity(12, 1, 0.06, 0.08);
    let views = distribute(&s.make_forest(1));
    let mut block = s.build_block(&views[0].blocks[0]);
    let rel = s.relaxation;
    for _ in 0..5 {
        block.apply_boundaries();
        block.stream_collide(rel);
    }
    let snap = save_block_full(&block);
    let mut restored = restore_block_full(&snap, s.boundary).expect("restore");
    for _ in 0..5 {
        block.apply_boundaries();
        block.stream_collide(rel);
        restored.apply_boundaries();
        restored.stream_collide(rel);
    }
    assert_eq!(save_block_full(&block), save_block_full(&restored));
}

/// Checkpoint/restart composed with the *overlapped* schedule: a
/// resilient overlapped run that crashes mid-way restores from a
/// checkpoint written after overlapped steps and still converges
/// bitwise to the plain synchronous reference — the checkpoint captures
/// the complete state no matter which schedule produced it.
#[test]
fn overlapped_checkpoint_restart_matches_sync_reference() {
    use std::sync::Arc;
    use trillium_core::driver::{run_distributed_with, DriverConfig};
    use trillium_geometry::voxelize::VoxelizeConfig;
    use trillium_geometry::{VascularTree, VascularTreeParams};
    let scenario = || {
        let tree = VascularTree::generate(&VascularTreeParams {
            generations: 4,
            root_radius: 1.2,
            root_length: 7.0,
            ..Default::default()
        });
        Scenario::from_sdf(
            "vascular-ckpt",
            Arc::new(tree),
            0.25,
            [16, 16, 16],
            0.06,
            [0.0, 0.0, 0.05],
            1.0,
            VoxelizeConfig::default(),
        )
        .with_skewed_balance(0.7)
    };
    let cfg_sync = DriverConfig { collect_pdfs: true, ..Default::default() };
    let reference = run_distributed_with(&scenario(), 4, 1, 24, &[], cfg_sync);
    assert!(!reference.has_nan());
    // Crash rank 1 at step 13: recovery restores the step-12 checkpoint,
    // which was itself written after 12 overlapped steps.
    let cfg = RunConfig {
        driver: DriverConfig { overlap: true, collect_pdfs: true, ..Default::default() },
        resilience: Some(ResilienceConfig {
            checkpoint_every: 6,
            fault: Some(FaultConfig::new(11).with_crash(1, 13)),
            ..ResilienceConfig::default()
        }),
        ..RunConfig::default()
    };
    let res = run_distributed_composed(&scenario(), 4, 1, 24, &[], &cfg).expect("recoverable");
    assert_eq!(res.recoveries(), 1, "the injected crash must trigger one recovery");
    assert_eq!(
        reference.pdf_dump(),
        res.pdf_dump(),
        "restart from an overlapped-schedule checkpoint deviates from the sync reference"
    );
}

/// What a run leaves behind, as bits: per rank `mass_initial`,
/// `mass_final`, `energy_initial`, `energy_final`, then one FNV-1a digest
/// over every dumped block id and PDF.
fn run_bits(r: &RunResult) -> Vec<u64> {
    let mut bits: Vec<u64> = r
        .ranks
        .iter()
        .flat_map(|rr| [rr.mass_initial, rr.mass_final, rr.energy_initial, rr.energy_final])
        .map(f64::to_bits)
        .collect();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (id, vals) in r.pdf_dump() {
        eat(id);
        vals.iter().for_each(|v| eat(v.to_bits()));
    }
    bits.push(h);
    bits
}

/// The conservation totals and the final PDFs of a small-block run, bit
/// for bit as the commit before the fused reduction pass and the
/// field-to-field same-rank exchange computed them (the literals were
/// printed by that commit's code). 32³ cells in 8³ blocks on 2 ranks is
/// the benchmark's `cavity_smallblocks` shape; 5 steps end an in-place
/// run at odd storage parity. The channel puts pull blocks carved by the
/// obstacle beside in-place dense ones on both ranks, so same-rank copies
/// cross between the two storage conventions.
#[test]
fn totals_and_pdfs_are_pinned_across_schedules_and_schemes() {
    const CAVITY: [u64; 9] = [
        4670232813583204353,
        4670232813583204353,
        0,
        4171387690891083776,
        4670232813583204353,
        4670232813583204349,
        0,
        4604364729728332863,
        2684552734057877363,
    ];
    const CHANNEL: [u64; 9] = [
        4661076080747085825,
        4661157004802890137,
        0,
        4598547121595988940,
        4661076080747085825,
        4661076080747085825,
        0,
        4172722193064525824,
        17450502274543088152,
    ];
    let cavity = || Scenario::lid_driven_cavity(32, 4, 0.05, 0.08);
    let channel = || Scenario::channel_with_obstacle([32, 16, 16], [4, 2, 2], 0.07, 0.03, 0.2);
    for overlap in [false, true] {
        let cfg = DriverConfig { overlap, collect_pdfs: true, ..Default::default() };
        for kernel in [KernelChoice::Pull, KernelChoice::InPlace] {
            let r = run_distributed_with(&cavity().with_kernel(kernel), 2, 1, 5, &[], cfg);
            assert!(!r.has_nan());
            assert_eq!(run_bits(&r), CAVITY, "cavity, overlap={overlap}, {kernel:?}");
        }
        let mixed = channel().with_kernel(KernelChoice::InPlace);
        let r = run_distributed_with(&mixed, 2, 1, 5, &[], cfg);
        assert!(!r.has_nan());
        for rr in &r.ranks {
            let pull = rr.obs.as_ref().unwrap().metrics.counter("kernel.fallback_pull") as usize;
            assert!(0 < pull && pull < rr.num_blocks, "rank {}: {pull} pull blocks", rr.rank);
        }
        assert_eq!(run_bits(&r), CHANNEL, "channel, overlap={overlap}");
    }
}
