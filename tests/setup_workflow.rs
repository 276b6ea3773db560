//! The paper's §2.2 setup workflow, end to end: the block structure is
//! computed once (possibly on a different machine), written to the
//! size-optimized file, and at simulation start "only one process
//! accesses the file system and loads the entire file into memory using
//! one single read operation. Following this read operation, the binary
//! file content is broadcast to all processes."

use trillium_blockforest::{distribute, file, morton_balance, SetupForest};
use trillium_comm::World;
use trillium_core::prelude::*;
use trillium_geometry::vec3::vec3;
use trillium_geometry::Aabb;

/// Rank 0 "reads" the file and broadcasts the bytes; every rank parses
/// its own copy, distributes, and picks out its local view — no rank ever
/// needs more than the broadcast buffer plus its own blocks.
#[test]
fn one_reader_broadcast_setup() {
    // Pre-computed setup artifact (as if from an earlier run).
    let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(4.0, 4.0, 4.0));
    let mut forest = SetupForest::uniform(domain, [4, 4, 4], [8, 8, 8]);
    morton_balance(&mut forest, 8);
    let file_bytes = file::save(&forest);
    let expected_blocks: Vec<usize> =
        distribute(&forest).iter().map(|v| v.num_local_blocks()).collect();

    let results = World::run(8, |mut comm| {
        // Only rank 0 holds the file content initially.
        let payload = if comm.rank() == 0 { Some(file_bytes.clone()) } else { None };
        let bytes = comm.broadcast(0, payload);
        let forest = file::load(&bytes).expect("every rank parses the broadcast file");
        let views = distribute(&forest);
        let mine = &views[comm.rank() as usize];
        // Sanity: the total workload is globally consistent.
        let local_work: f64 = mine.blocks.iter().map(|b| b.workload).sum();
        let total = comm.allreduce_sum_f64(local_work);
        (mine.num_local_blocks(), total)
    });

    for (rank, (nblocks, total)) in results.iter().enumerate() {
        assert_eq!(*nblocks, expected_blocks[rank], "rank {rank} block count");
        assert!((total - forest.total_workload()).abs() < 1e-9);
    }
}

/// The whole simulate-from-file path: balance (graph partitioner) + save
/// on the "setup machine", then load, plan from the loaded forest and
/// run the one time loop — on the file's assignment, with results
/// bitwise identical to the direct path.
#[test]
fn simulate_from_saved_forest_matches_direct() {
    let cavity = || Scenario::lid_driven_cavity(16, 2, 0.06, 0.07);
    let probes: Vec<[i64; 3]> = vec![[4, 4, 4], [11, 12, 13]];
    let cfg = RunConfig {
        driver: DriverConfig { collect_pdfs: true, ..DriverConfig::default() },
        ..RunConfig::default()
    };

    let balanced = cavity().with_balancer(Balancer::Graph);
    let direct = run_distributed_composed(&balanced, 4, 1, 20, &probes, &cfg).unwrap();

    // The file is all that crosses over: the running side's scenario
    // keeps its default balancer and never applies it.
    let bytes = file::save(&balanced.make_forest(4));
    let plan = RunPlan::from_forest(file::load(&bytes).unwrap());
    let scenario = cavity();
    let from_file = run_planned(&plan, &scenario, 1, 20, &probes, &cfg).unwrap();

    assert_eq!(from_file.probes(), direct.probes());
    assert!(from_file.pdf_dump() == direct.pdf_dump(), "PDFs differ from the direct path");
    for (rank, view) in from_file.ranks.iter().zip(&plan.views) {
        let ran: Vec<u64> = rank.pdfs.iter().map(|(id, _)| *id).collect();
        let planned: Vec<u64> = view.blocks.iter().map(|b| b.id.pack()).collect();
        assert_eq!(ran, planned, "rank {} did not run the file's blocks", view.rank);
    }

    // A forest balanced for four ranks on a world of two is refused by
    // every rank before any message is sent.
    let refused = World::run(2, |comm| drive_rank(comm, &plan, &scenario, 1, 20, &[], &cfg));
    for (rank, r) in refused.into_iter().enumerate() {
        assert!(
            matches!(r, Err(RecoveryError::PlanMismatch { rank: at, .. }) if at as usize == rank),
            "rank {rank} accepted a four-rank plan on two ranks"
        );
    }
}

/// Refined (mixed-level) forests: the data structures support octree
/// refinement even though the LBM driver requires uniform levels (as in
/// the paper, where refinement support in the solver is future work).
#[test]
fn refined_forest_balances_and_serializes() {
    let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(2.0, 2.0, 2.0));
    let mut forest = SetupForest::uniform(domain, [2, 2, 2], [16, 16, 16]);
    // Refine one block twice (two levels deep).
    let target = forest.blocks[3].id;
    forest.refine_where(|b| b.id == target);
    let child = forest.blocks.iter().find(|b| b.id.level() == 1).unwrap().id;
    forest.refine_where(|b| b.id == child);
    assert_eq!(forest.num_blocks(), 7 + 7 + 8);
    assert!(!forest.is_uniform_level());

    // Morton balancing handles mixed levels (coordinates are scaled to
    // the finest level).
    morton_balance(&mut forest, 4);
    assert!(forest.imbalance() < 2.0);
    let w = forest.rank_workloads();
    assert!(w.iter().all(|&x| x > 0.0), "all ranks must receive work: {w:?}");

    // The file format round-trips the refinement structure.
    let bytes = file::save(&forest);
    let loaded = file::load(&bytes).unwrap();
    assert_eq!(loaded.num_blocks(), forest.num_blocks());
    for (a, b) in forest.blocks.iter().zip(&loaded.blocks) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.id.level(), b.id.level());
        assert_eq!(a.coords, b.coords);
        assert!((a.aabb.min - b.aabb.min).norm() < 1e-12);
    }
    // And the driver-facing distribution rejects it (uniform levels only).
    let result = std::panic::catch_unwind(|| distribute(&loaded));
    assert!(result.is_err(), "mixed-level distribution must be rejected loudly");
}
