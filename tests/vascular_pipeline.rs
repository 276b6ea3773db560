//! End-to-end vascular pipeline: procedural tree → surface mesh →
//! mesh-based SDF → block forest → voxelization → distributed flow
//! simulation — every §2.3 stage, chained.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use trillium_core::pipeline::setup_domain;
use trillium_core::prelude::*;
use trillium_geometry::vec3::vec3;
use trillium_geometry::{Aabb, MeshSdf, SignedDistance, VascularTree, VascularTreeParams, Vec3};

fn small_tree() -> VascularTree {
    VascularTree::generate(&VascularTreeParams {
        generations: 3,
        segments_per_branch: 2,
        root_radius: 1.2,
        root_length: 6.0,
        tortuosity: 0.2,
        ..Default::default()
    })
}

/// The mesh extracted from the implicit tree must agree with the implicit
/// signed distance: same inside/outside classification away from the
/// surface, distances within the extraction resolution.
#[test]
fn mesh_sdf_agrees_with_implicit_tree() {
    let tree = small_tree();
    let cell = 0.25;
    let mesh = tree.to_mesh(cell);
    assert!(mesh.is_watertight());
    let mesh_sdf = MeshSdf::new(mesh);

    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let bb = tree.bounding_box();
    let e = bb.extents();
    let mut checked = 0;
    for _ in 0..500 {
        let p = bb.min
            + vec3(
                rng.gen_range(0.0..1.0) * e.x,
                rng.gen_range(0.0..1.0) * e.y,
                rng.gen_range(0.0..1.0) * e.z,
            );
        let d_tree = tree.signed_distance(p);
        if d_tree.abs() < 1.5 * cell {
            continue; // near-surface: extraction error dominates
        }
        let d_mesh = mesh_sdf.signed_distance(p);
        assert_eq!(d_tree < 0.0, d_mesh < 0.0, "sign mismatch at {p:?}: {d_tree} vs {d_mesh}");
        // Distance agreement within a couple of extraction cells for
        // points near the vessel (far away the union SDF is exact but the
        // mesh may be closer to a different branch — both still positive).
        if d_tree.abs() < 4.0 * cell {
            assert!((d_tree - d_mesh).abs() < 2.0 * cell, "at {p:?}: {d_tree} vs {d_mesh}");
        }
        checked += 1;
    }
    assert!(checked > 100, "too few informative samples: {checked}");
}

/// Voxelizing against the extracted mesh and against the implicit tree
/// must mark (nearly) the same fluid cells.
#[test]
fn voxelization_consistent_between_mesh_and_implicit() {
    use trillium_field::{FlagOps, Shape};
    use trillium_geometry::voxelize::{voxelize_block, VoxelizeConfig};
    let tree = small_tree();
    let mesh_sdf = MeshSdf::new(tree.to_mesh(0.2));
    let bb = tree.bounding_box();
    let shape = Shape::cube(24);
    let origin = bb.center() - vec3(3.0, 3.0, 3.0);
    let dx = 0.25;
    let cfg = VoxelizeConfig::default();
    let f_tree = voxelize_block(&tree, origin, dx, shape, &cfg);
    let f_mesh = voxelize_block(&mesh_sdf, origin, dx, shape, &cfg);
    let (a, b) = (f_tree.count_fluid() as f64, f_mesh.count_fluid() as f64);
    assert!(a > 50.0, "block does not cover the vessel: {a}");
    assert!((a - b).abs() / a < 0.15, "fluid counts diverge: {a} vs {b}");
}

/// Inflow at the root must push net mass into the tree and produce flow
/// along the root vessel.
#[test]
fn inflow_drives_flow_through_tree() {
    let tree = Arc::new(small_tree());
    let setup = setup_domain(
        "tree-flow",
        tree.clone(),
        0.3,
        [8, 8, 8],
        2,
        Balancer::Morton,
        0.08,
        [0.0, 0.0, 0.04], // root vessel grows along +z
    );
    assert!(setup.total_fluid_cells() > 300.0);
    // The sparse geometry must actually produce partially covered blocks.
    assert!(setup.fluid_fraction() < 0.9);

    let r = run_distributed(&setup.scenario, 2, 1, 120);
    assert!(!r.has_nan());
    // Velocity inflow adds mass (until outlets balance it).
    assert!(r.mass_drift() > 1e-6, "no inflow effect: {}", r.mass_drift());
    let stats = r.total_stats();
    assert!(stats.fluid_cells > 0);
    assert!(stats.cells >= stats.fluid_cells);
}

/// A carved run that asks for the in-place kernel must degrade loudly,
/// not silently: sparse row-interval blocks have no AA-pattern variant,
/// so they resolve to pull — and that resolution is (a) visible on the
/// built block and (b) counted by the driver as `kernel.fallback_pull`.
#[test]
fn carved_inplace_request_surfaces_pull_fallback() {
    let tree = Arc::new(small_tree());
    let setup = setup_domain(
        "tree-fallback",
        tree,
        0.3,
        [8, 8, 8],
        2,
        Balancer::Morton,
        0.08,
        [0.0, 0.0, 0.04],
    );
    assert!(setup.fluid_fraction() < 0.9, "need partially covered blocks to carve");
    let scenario = setup.scenario.with_kernel(KernelChoice::InPlace);

    // Statically: the carved forest contains blocks whose requested
    // in-place scheme resolves to pull.
    let forest = scenario.make_forest(2);
    let mut fallbacks = 0u64;
    for view in &trillium_blockforest::distribute(&forest) {
        for lb in &view.blocks {
            let b = scenario.build_block(lb);
            if b.fell_back_to_pull() {
                assert_eq!(b.resolved_kernel_label(), "pull");
                fallbacks += 1;
            }
        }
    }
    assert!(fallbacks > 0, "carved tree produced no sparse blocks");

    // Dynamically: the driver surfaces exactly that count as a metric,
    // and the degraded run still computes sane physics.
    let r = run_distributed(&scenario, 2, 1, 40);
    assert!(!r.has_nan());
    assert_eq!(
        r.metrics().counter("kernel.fallback_pull"),
        fallbacks,
        "driver must report every silent InPlace -> Pull resolution"
    );
}

/// The weak-scaling property at miniature scale: doubling the block
/// budget refines dx and captures more fluid cells.
#[test]
fn partition_refinement_increases_resolution() {
    use trillium_blockforest::search_weak_partition;
    let tree = small_tree();
    let coarse = search_weak_partition(&tree, [8, 8, 8], 32, 28);
    let fine = search_weak_partition(&tree, [8, 8, 8], 256, 28);
    assert!(fine.dx < coarse.dx);
    assert!(fine.forest.total_workload() > coarse.forest.total_workload());
    // Fluid volume is invariant: workload × dx³ approximately constant.
    let v1 = coarse.forest.total_workload() * coarse.dx.powi(3);
    let v2 = fine.forest.total_workload() * fine.dx.powi(3);
    assert!((v1 - v2).abs() / v1 < 0.25, "volumes {v1} vs {v2}");
}

/// The tree behind a counter of distance queries, to tell which stage
/// of the pipeline asks the geometry.
struct CountingSdf {
    inner: VascularTree,
    queries: AtomicU64,
}

impl CountingSdf {
    fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }
}

impl SignedDistance for CountingSdf {
    fn signed_distance(&self, p: Vec3) -> f64 {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.inner.signed_distance(p)
    }
    fn bounding_box(&self) -> Aabb {
        self.inner.bounding_box()
    }
    fn contains(&self, p: Vec3) -> bool {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.inner.contains(p)
    }
    fn boundary_color(&self, p: Vec3) -> u32 {
        self.inner.boundary_color(p)
    }
}

/// The partition the set-up computes is the one the time loop runs on:
/// under either balancer the plan repeats the set-up's assignment
/// without asking the geometry again, the bytes the ranks exchange are
/// the partitioner's predicted cut (each cut double crosses once per
/// direction, 8 B each), the graph cut is no worse than Morton's — and
/// since ownership is not physics, both runs end in the same PDFs.
#[test]
fn graph_partition_reaches_the_time_loop() {
    const RANKS: u32 = 4;
    const STEPS: u64 = 10;
    let run = |balancer: Balancer| {
        let sdf = Arc::new(CountingSdf { inner: small_tree(), queries: AtomicU64::new(0) });
        let setup = setup_domain(
            "tree-partition",
            sdf.clone(),
            0.3,
            [8, 8, 8],
            RANKS,
            balancer,
            0.08,
            [0.0, 0.0, 0.04],
        );
        let classified = sdf.queries();
        assert!(classified > 0);

        let owners = |f: &trillium_blockforest::SetupForest| -> Vec<u32> {
            f.blocks.iter().map(|b| b.rank).collect()
        };
        let plan = plan_run(&setup.scenario, RANKS);
        assert_eq!(owners(&plan.forest), owners(&setup.forest), "{balancer:?}");
        assert_eq!(owners(&setup.scenario.make_forest(RANKS)), owners(&setup.forest));
        assert_eq!(sdf.queries(), classified, "planning classified the domain again");

        // What voxelizing every block once asks of the geometry; a run
        // may ask exactly that much more.
        for lb in plan.views.iter().flat_map(|v| &v.blocks) {
            setup.scenario.build_block(lb);
        }
        let voxelized = sdf.queries() - classified;
        let cfg = DriverConfig { collect_pdfs: true, ..DriverConfig::default() };
        let result = run_distributed_with(&setup.scenario, RANKS, 1, STEPS, &[], cfg);
        assert_eq!(sdf.queries() - classified, 2 * voxelized, "the run classified again");

        let cut = edge_cut(&setup.forest);
        let bytes = result.metrics().counter("comm.bytes_sent");
        assert_eq!(bytes as f64, 16.0 * cut * STEPS as f64, "{balancer:?}");
        (cut, result.pdf_dump())
    };
    let (cut_morton, pdfs_morton) = run(Balancer::Morton);
    let (cut_graph, pdfs_graph) = run(Balancer::Graph);
    assert!(cut_graph <= cut_morton, "graph cut {cut_graph} above morton cut {cut_morton}");
    assert!(pdfs_morton == pdfs_graph, "ownership changed the physics");
}
