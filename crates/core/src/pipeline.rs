//! The end-to-end initialization pipeline of paper §2.3.
//!
//! mesh / implicit domain → block forest (hierarchical intersection
//! filtering, once, in [`Scenario::from_sdf`]) → load balancing (the
//! scenario's [`Balancer`]) → per-rank distributed views → per-block
//! voxelization (done lazily by the scenario when the driver builds
//! blocks). The balanced forest is the one artifact handed from set-up
//! to run: [`plan_run`] on the returned scenario yields it again, and a
//! saved copy feeds [`RunPlan::from_forest`](crate::driver::RunPlan::from_forest).

use crate::driver::plan_run;
pub use crate::loadbalance::Balancer;
use crate::scenario::Scenario;
use std::sync::Arc;
use trillium_blockforest::{DistributedForest, SetupForest};
use trillium_field::CellFlags;
use trillium_geometry::voxelize::VoxelizeConfig;
use trillium_geometry::{SignedDistance, VascularTree};

/// A fully prepared domain: forest, per-rank views and the scenario that
/// builds block state.
pub struct DomainSetup {
    /// The balanced global forest (setup phase artifact) — what
    /// `plan_run(&self.scenario, num_procs)` plans from.
    pub forest: SetupForest,
    /// Per-rank distributed views.
    pub views: Vec<DistributedForest>,
    /// The scenario used to build per-block state.
    pub scenario: Scenario,
    /// The resolution chosen (for searches) or given.
    pub dx: f64,
}

impl DomainSetup {
    /// Total fluid cells over all blocks.
    pub fn total_fluid_cells(&self) -> f64 {
        self.forest.total_workload()
    }

    /// Fraction of allocated lattice cells that are fluid.
    pub fn fluid_fraction(&self) -> f64 {
        let per_block: f64 = self.forest.cells_per_block.iter().map(|&c| c as f64).product();
        self.total_fluid_cells() / (per_block * self.forest.num_blocks() as f64)
    }
}

/// Prepares a signed-distance domain for `num_procs` ranks at resolution
/// `dx`, with inlet/outlet colors mapped to velocity/pressure conditions.
#[allow(clippy::too_many_arguments)]
pub fn setup_domain(
    name: &str,
    sdf: Arc<dyn SignedDistance>,
    dx: f64,
    cells_per_block: [usize; 3],
    num_procs: u32,
    balancer: Balancer,
    viscosity: f64,
    inflow: [f64; 3],
) -> DomainSetup {
    let config = VoxelizeConfig {
        color_map: vec![
            (VascularTree::INLET_COLOR, CellFlags::VELOCITY),
            (VascularTree::OUTLET_COLOR, CellFlags::PRESSURE),
        ],
    };
    let scenario =
        Scenario::from_sdf(name, sdf, dx, cells_per_block, viscosity, inflow, 1.0, config)
            .with_balancer(balancer);
    let plan = plan_run(&scenario, num_procs);
    DomainSetup { forest: plan.forest, views: plan.views, scenario, dx }
}

/// Hybrid-parallel domain classification (paper §2.3): "the process of
/// deciding which blocks are required by the simulation is hybridly
/// parallelized. First all blocks are randomly scattered among the
/// processes to avoid load imbalances, then evaluation takes place [...]
/// Finally, the result is gathered on all processes."
///
/// Every rank computes the same candidate root grid, classifies a
/// scattered subset of root-grid slabs against the domain, serializes its
/// `(id, workload)` pairs, and an allgather reconstructs the identical
/// global forest on every rank. The result is exactly
/// [`SetupForest::from_domain`]'s, independent of the rank count
/// (asserted by tests). A dead peer or a torn gather frame is the
/// allgather's [`CommError`](trillium_comm::CommError).
pub fn parallel_classify<S: SignedDistance + ?Sized>(
    comm: &mut trillium_comm::Communicator,
    sdf: &S,
    dx: f64,
    cells_per_block: [usize; 3],
    samples: Option<usize>,
) -> Result<SetupForest, trillium_comm::CommError> {
    use trillium_blockforest::BlockId;

    let (domain, roots) = SetupForest::candidate_grid(sdf, dx, cells_per_block);
    // Work units: slabs along the longest axis, scattered deterministically
    // (a seeded shuffle — "randomly scattered to avoid load imbalances").
    // The longest axis (the last of equals).
    let axis = (1..3).fold(0, |m, a| if roots[a] >= roots[m] { a } else { m });
    let slabs: Vec<usize> = {
        let mut s: Vec<usize> = (0..roots[axis]).collect();
        // Fisher–Yates with a fixed LCG so all ranks agree on the schedule.
        let mut state = 0x9E3779B97F4A7C15u64;
        for i in (1..s.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.swap(i, (state >> 33) as usize % (i + 1));
        }
        s
    };

    // Classify my share.
    let mut mine = Vec::new();
    for (w, &slab) in slabs.iter().enumerate() {
        if w as u32 % comm.size() != comm.rank() {
            continue;
        }
        let range = |a: usize| if a == axis { [slab, slab + 1] } else { [0, roots[a]] };
        mine.extend(SetupForest::classify_range(
            sdf,
            &domain,
            roots,
            cells_per_block,
            samples,
            range(0),
            range(1),
            range(2),
        ));
    }

    // Serialize (id, workload) pairs and gather on all ranks.
    let mut payload = Vec::with_capacity(mine.len() * 16);
    for b in &mine {
        payload.extend_from_slice(&b.id.pack().to_le_bytes());
        payload.extend_from_slice(&(b.workload as u64).to_le_bytes());
    }
    let gathered = comm.try_allgather_bytes(payload)?;

    let mut blocks = Vec::new();
    for part in gathered {
        let (words, _) = part.as_chunks::<8>();
        for &[id, workload] in words.as_chunks::<2>().0 {
            let id = BlockId::unpack(u64::from_le_bytes(id));
            let workload = u64::from_le_bytes(workload) as f64;
            blocks.push(SetupForest::block_from_id(
                &domain,
                roots,
                cells_per_block,
                id,
                workload,
                0,
            ));
        }
    }
    Ok(SetupForest::from_blocks(domain, roots, cells_per_block, blocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_distributed;
    use trillium_geometry::vec3::vec3;
    use trillium_geometry::{AnalyticSdf, VascularTreeParams};

    /// Full pipeline on a tube domain: setup, distribute, run, and verify
    /// that inflow/outflow actually drive a flow through the vessel.
    #[test]
    fn tube_domain_end_to_end() {
        // A capsule "vessel" along z. Use the vascular-tree SDF contract:
        // analytic capsule with manual inlet/outlet colors is emulated by
        // a 1-generation tree.
        let tree = Arc::new(trillium_geometry::VascularTree::generate(&VascularTreeParams {
            generations: 1,
            segments_per_branch: 1,
            tortuosity: 0.0,
            root_radius: 1.2,
            root_length: 6.0,
            ..Default::default()
        }));
        let setup = setup_domain(
            "tube",
            tree,
            0.25,
            [8, 8, 8],
            2,
            Balancer::Morton,
            0.08,
            [0.0, 0.0, 0.04],
        );
        assert!(setup.total_fluid_cells() > 500.0, "{}", setup.total_fluid_cells());
        assert!(setup.fluid_fraction() > 0.05 && setup.fluid_fraction() < 1.0);

        let r = run_distributed(&setup.scenario, 2, 1, 60);
        assert!(!r.has_nan());
        // Inflow drives mass through: fluid momentum in +z somewhere.
        // (checked indirectly: mass grows then stabilizes or flow exists;
        // here we check the run executed real fluid work)
        assert!(r.total_stats().fluid_cells > 0);
    }

    /// The §2.3 hybrid-parallel initialization: any rank count produces
    /// the exact forest the serial path computes.
    #[test]
    fn parallel_classify_matches_serial() {
        use trillium_comm::World;
        let tree = trillium_geometry::VascularTree::generate(&VascularTreeParams {
            generations: 4,
            segments_per_branch: 2,
            ..Default::default()
        });
        let serial = SetupForest::from_domain(&tree, 0.3, [8, 8, 8]);
        for procs in [1u32, 3, 7] {
            let forests = World::run(procs, |mut comm| {
                parallel_classify(&mut comm, &tree, 0.3, [8, 8, 8], None)
                    .expect("an unfaulted gather")
            });
            for f in &forests {
                assert_eq!(f.num_blocks(), serial.num_blocks(), "{procs} ranks");
                assert_eq!(f.roots, serial.roots);
                for (a, b) in f.blocks.iter().zip(&serial.blocks) {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.workload, b.workload);
                    assert_eq!(a.coords, b.coords);
                    assert_eq!(a.fully_inside, b.fully_inside);
                }
            }
        }
    }

    #[test]
    fn graph_balancer_path_works() {
        let sdf = Arc::new(AnalyticSdf::Sphere { center: vec3(0.0, 0.0, 0.0), radius: 1.0 });
        let setup =
            setup_domain("sphere", sdf, 0.08, [6, 6, 6], 4, Balancer::Graph, 0.05, [0.0; 3]);
        assert_eq!(setup.views.len(), 4);
        assert!(setup.forest.imbalance() < 1.25, "imbalance {}", setup.forest.imbalance());
    }
}
