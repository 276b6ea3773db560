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

/// A carved run that asks for the in-place kernel gets it on every
/// block: each built block, carved or dense, runs `InPlace` and holds one
/// stored field (`dst` empty), and the run computes sane physics.
#[test]
fn carved_inplace_request_runs_in_place_on_every_block() {
    let tree = Arc::new(small_tree());
    let setup = setup_domain(
        "tree-inplace",
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

    let forest = scenario.make_forest(2);
    let mut carved = 0;
    for view in &trillium_blockforest::distribute(&forest) {
        for lb in &view.blocks {
            let b = scenario.build_block(lb);
            assert_eq!(b.scheme, UpdateScheme::InPlace);
            assert!(b.dst.data().is_empty(), "one stored field");
            carved += usize::from(b.src.rows().is_some());
        }
    }
    assert!(carved > 0, "carved tree produced no sparse blocks");

    let r = run_distributed(&scenario, 2, 1, 40);
    assert!(!r.has_nan());
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

/// The tree behind counters of distance queries and colour calls, to
/// tell which stage of the pipeline asks the geometry. With `restrict`
/// it forwards [`SignedDistance::restricted`] and counts the queries of
/// the distance the tree lends too; without it, it hides the hook and
/// lends itself, as a domain without one does.
struct CountingSdf {
    inner: VascularTree,
    restrict: bool,
    queries: AtomicU64,
    colors: AtomicU64,
}

impl CountingSdf {
    fn new(inner: VascularTree, restrict: bool) -> Arc<Self> {
        Arc::new(CountingSdf {
            inner,
            restrict,
            queries: AtomicU64::new(0),
            colors: AtomicU64::new(0),
        })
    }
    fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }
    fn colors(&self) -> u64 {
        self.colors.load(Ordering::Relaxed)
    }
}

/// A distance behind the counters of a [`CountingSdf`].
struct Counted<'a> {
    sdf: &'a dyn SignedDistance,
    counts: &'a CountingSdf,
}

impl SignedDistance for Counted<'_> {
    fn signed_distance(&self, p: Vec3) -> f64 {
        self.counts.queries.fetch_add(1, Ordering::Relaxed);
        self.sdf.signed_distance(p)
    }
    fn bounding_box(&self) -> Aabb {
        self.sdf.bounding_box()
    }
    fn contains(&self, p: Vec3) -> bool {
        self.counts.queries.fetch_add(1, Ordering::Relaxed);
        self.sdf.contains(p)
    }
    fn boundary_color(&self, p: Vec3) -> u32 {
        self.counts.colors.fetch_add(1, Ordering::Relaxed);
        self.sdf.boundary_color(p)
    }
}

impl SignedDistance for CountingSdf {
    fn signed_distance(&self, p: Vec3) -> f64 {
        Counted { sdf: &self.inner, counts: self }.signed_distance(p)
    }
    fn bounding_box(&self) -> Aabb {
        self.inner.bounding_box()
    }
    fn contains(&self, p: Vec3) -> bool {
        Counted { sdf: &self.inner, counts: self }.contains(p)
    }
    fn boundary_color(&self, p: Vec3) -> u32 {
        Counted { sdf: &self.inner, counts: self }.boundary_color(p)
    }
    fn restricted(&self, region: &Aabb, f: &mut dyn FnMut(&dyn SignedDistance)) {
        if self.restrict {
            self.inner.restricted(region, &mut |near| f(&Counted { sdf: near, counts: self }));
        } else {
            f(self)
        }
    }
}

/// Set-up asks the geometry the same questions whether the tree lends
/// distances restricted to a box or not: the same classification and
/// voxelization descent, each query over fewer capsules. The counts on
/// the small tree are pinned: distance queries to classify the domain,
/// distance queries to voxelize every block, colour calls.
#[test]
fn restriction_keeps_every_setup_query() {
    let count = |restrict| {
        let sdf = CountingSdf::new(small_tree(), restrict);
        let setup = setup_domain(
            "tree-queries",
            sdf.clone(),
            0.3,
            [8, 8, 8],
            2,
            Balancer::Morton,
            0.08,
            [0.0, 0.0, 0.04],
        );
        let classified = sdf.queries();
        let flags: Vec<_> = setup
            .views
            .iter()
            .flat_map(|v| &v.blocks)
            .map(|lb| setup.scenario.block_flags(lb).data().to_vec())
            .collect();
        ([classified, sdf.queries() - classified, sdf.colors()], flags)
    };
    let (with, without) = (count(true), count(false));
    assert_eq!(with.0, without.0, "the restriction changed the descent");
    assert!(with.1 == without.1, "the restriction changed the flags");
    assert_eq!(with.0, [6641, 11301, 4328]);
}

/// `Scenario::block_flags` on the benchmark's 5-generation tree, at three
/// times the workload's `dx`, equals a domain that hides the hook, byte
/// for byte, on every block.
#[test]
fn restricted_block_flags_equal_the_unrestricted_ones() {
    let tree = || {
        VascularTree::generate(&VascularTreeParams {
            generations: 5,
            root_radius: 1.2,
            root_length: 7.0,
            ..Default::default()
        })
    };
    // The workload's `dx` puts 160 000 fluid cells in the tree.
    let t = tree();
    let dx = (t.fluid_fraction_estimate(50_000, 7) * t.bounding_box().volume() / 160_000.0).cbrt();
    let flags = |restrict| {
        let setup = setup_domain(
            "tree-flags",
            CountingSdf::new(tree(), restrict),
            3.0 * dx,
            [16; 3],
            2,
            Balancer::Graph,
            0.06,
            [0.0, 0.0, 0.05],
        );
        let blocks: Vec<_> = setup.views.iter().flat_map(|v| &v.blocks).collect();
        blocks.iter().map(|lb| (lb.id, setup.scenario.block_flags(lb).data().to_vec())).collect()
    };
    let (with, without): (Vec<_>, Vec<_>) = (flags(true), flags(false));
    assert!(with.len() > 10, "only {} blocks", with.len());
    for ((id, a), (id_b, b)) in with.iter().zip(&without) {
        assert_eq!(id, id_b);
        assert!(a == b, "block {id:?}: flags differ");
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
        let sdf = CountingSdf::new(small_tree(), true);
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
