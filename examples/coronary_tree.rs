//! The paper's flagship application at workstation scale: blood flow in a
//! (synthetic) coronary artery tree.
//!
//! Walks the full §2.3 pipeline: procedural tree generation → watertight
//! surface-mesh extraction (marching tetrahedra) → block forest with
//! hierarchical intersection filtering → load balancing → per-block
//! voxelization with colored inflow/outflow boundary conditions → a
//! distributed simulation driving flow from the inlet through the tree.
//!
//! Run with: `cargo run --release --example coronary_tree`

use std::sync::Arc;
use trillium_core::pipeline::{setup_domain, Balancer};
use trillium_core::prelude::*;
use trillium_geometry::{SignedDistance, VascularTree, VascularTreeParams};

fn main() {
    // A small tree (5 generations = 31 branches) keeps the example quick.
    let tree = VascularTree::generate(&VascularTreeParams {
        generations: 5,
        root_radius: 1.2,
        root_length: 7.0,
        ..Default::default()
    });
    println!(
        "generated vascular tree: {} segments, {} outlets, bounding box {:.1?} mm",
        tree.num_segments(),
        tree.outlets.len(),
        tree.bounding_box().extents().to_array(),
    );
    println!(
        "fluid fraction of bounding box: {:.2} % (paper's CTA geometry: ~0.3 %)",
        100.0 * tree.fluid_fraction_estimate(50_000, 7)
    );

    // Surface mesh via marching tetrahedra — the artifact a clinical
    // pipeline would hand to the solver.
    let mesh = tree.to_mesh(0.25);
    println!(
        "extracted surface mesh: {} triangles, watertight: {}, enclosed volume {:.1} mm^3",
        mesh.num_triangles(),
        mesh.is_watertight(),
        mesh.signed_volume()
    );

    // Full domain setup at dx = 0.15 mm with 10^3-cell blocks on 4 ranks.
    let tree = Arc::new(tree);
    let dx = 0.15;
    let setup = setup_domain(
        "coronary",
        tree.clone(),
        dx,
        [10, 10, 10],
        4,
        Balancer::Graph,
        0.06,
        [0.0, 0.0, 0.05], // inflow velocity along the root axis (+z)
    );
    println!(
        "\ndomain setup: {} blocks, {:.3e} fluid cells, block fluid fraction {:.1} %, imbalance {:.3}",
        setup.forest.num_blocks(),
        setup.total_fluid_cells(),
        100.0 * setup.fluid_fraction(),
        setup.forest.imbalance()
    );

    let steps = 150;
    println!("running {steps} time steps on 4 ranks ...");
    let result = run_distributed(&setup.scenario, 4, 1, steps);
    assert!(!result.has_nan(), "simulation went unstable");
    let stats = result.total_stats();
    println!(
        "updated {} fluid cells ({} traversed), comm share {:.1} %",
        stats.fluid_cells,
        stats.cells,
        100.0 * result.comm_fraction()
    );

    // The run executes on the partition the set-up computed: every double
    // of its edge cut crosses a rank boundary once per direction, 8 B each.
    println!(
        "ghost exchange: {} B/step measured, 16 B x edge cut {} predicted",
        result.metrics().counter("comm.bytes_sent") / steps,
        edge_cut(&setup.forest)
    );

    // Perfusion check: the inlet drives mass into the tree.
    let drift = result.mass_drift();
    println!("net mass change from in/outflow: {:.3e} (inflow-driven)", drift);

    // Velocity near the inlet: probe a point just inside the root vessel.
    let (inlet, _) = tree.inlet;
    println!(
        "inlet is inside the domain: {}",
        tree.contains(trillium_geometry::vec3::vec3(inlet.x, inlet.y, inlet.z + 1.0))
    );
    println!("\ndone — see fig7_weak_vascular / fig8_strong_vascular for the scaling study.");
}
