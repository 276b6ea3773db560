//! The per-block boundary link list against its flag-scan oracle, through
//! `BlockSim`: every boundary sweep and force evaluation of a block walks
//! the list built at construction (`trillium_kernels::BoundaryLinks`),
//! and must write bitwise what `trillium_kernels::apply_boundaries` finds
//! by scanning the flags — on the dense cavity blocks and on carved
//! `voxelize_block` blocks, for both update schemes and both storage
//! parities. The kernel-level matrix (one box per boundary kind) lives in
//! `trillium_kernels::boundary`.

use trillium_core::blocksim::{boxed_block_flags, BlockSim, UpdateScheme};
use trillium_field::{CellFlags, FlagField, FlagOps, Shape, SoaPdfField};
use trillium_geometry::vec3::vec3;
use trillium_geometry::{voxelize_block, AnalyticSdf, VoxelizeConfig};
use trillium_kernels::boundary::momentum_exchange_force;
use trillium_kernels::{apply_boundaries, BoundaryParams};
use trillium_lattice::{Relaxation, D3Q19, MAGIC_TRT};

fn params() -> BoundaryParams {
    BoundaryParams {
        wall_velocity: [0.04, -0.01, 0.02],
        pressure_density: 1.02,
        pressure_density_alt: 0.98,
    }
}

/// A cavity corner block as `cavity_dense` builds them: three closed
/// faces (one the moving lid), three open toward neighbor blocks.
fn cavity_flags(n: usize) -> FlagField {
    let wall = Some(CellFlags::NOSLIP);
    boxed_block_flags(Shape::cube(n), [wall, None, wall, None, None, Some(CellFlags::VELOCITY)])
}

/// Two crossing vessels voxelized into a block (sparse row-interval
/// kernel), with stretches of the hull re-flagged so that all four
/// boundary kinds occur on interior and on ghost-layer wall cells.
fn carved_flags(n: usize) -> FlagField {
    let capsule = |a: [f64; 3], b: [f64; 3]| AnalyticSdf::Capsule {
        a: vec3(a[0], a[1], a[2]),
        b: vec3(b[0], b[1], b[2]),
        radius: 0.17,
    };
    let vessels = AnalyticSdf::Union(vec![
        capsule([-0.1, 0.3, 0.4], [1.1, 0.6, 0.5]),
        capsule([0.4, -0.1, 0.6], [0.5, 1.1, 0.5]),
    ]);
    let shape = Shape::cube(n);
    let mut flags = voxelize_block(
        &vessels,
        vec3(0.0, 0.0, 0.0),
        1.0 / n as f64,
        shape,
        &VoxelizeConfig::default(),
    );
    for (x, y, z) in shape.with_ghosts().iter() {
        if flags.flags(x, y, z).is_boundary() {
            let kind = if x < 1 {
                CellFlags::PRESSURE
            } else if x >= n as i32 - 1 {
                CellFlags::PRESSURE_ALT
            } else if (x + y) % 5 == 0 {
                CellFlags::VELOCITY
            } else {
                CellFlags::NOSLIP
            };
            flags.set_flags(x, y, z, kind);
        }
    }
    flags
}

fn assert_same_bits(a: &SoaPdfField<D3Q19>, b: &SoaPdfField<D3Q19>, what: &str) {
    assert_eq!(a.parity(), b.parity(), "{what}");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: slot {i} differs ({x} vs {y})");
    }
}

/// Steps `block` 12 times; before every sweep its list-driven boundary
/// sweep must equal the flag scan over the full storage.
fn check_against_flag_scan(mut block: BlockSim, what: &str) {
    let rel = Relaxation::trt_from_tau(0.9, MAGIC_TRT);
    for step in 0..12 {
        let mut scanned = block.src.clone();
        apply_boundaries::<D3Q19, _>(&mut scanned, &block.flags, &block.boundary);
        block.apply_boundaries();
        assert_same_bits(&scanned, &block.src, &format!("{what} step {step}"));
        block.stream_collide(rel);
    }
}

#[test]
fn blocksim_boundary_sweep_matches_flag_scan_bitwise() {
    for (name, flags) in [("cavity", cavity_flags(12)), ("carved", carved_flags(14))] {
        for scheme in [UpdateScheme::Pull, UpdateScheme::InPlace] {
            let block =
                BlockSim::from_flags_with_scheme(flags.clone(), params(), 1.0, [0.01; 3], scheme);
            assert!(!block.boundary_links().is_empty());
            // In place runs through both parities; the carved block
            // resolves to pull.
            let inplace = name == "cavity" && scheme == UpdateScheme::InPlace;
            assert_eq!(block.scheme == UpdateScheme::InPlace, inplace);
            check_against_flag_scan(block, &format!("{name} {scheme:?}"));
        }
    }
}

/// The benchmark's probes flip the parity of a block from outside; the
/// list reads it at apply time, so a carved block (which never runs in
/// place by itself) is swept correctly at odd parity too.
#[test]
fn carved_block_matches_flag_scan_at_forced_odd_parity() {
    let mut block = BlockSim::from_flags(carved_flags(14), params(), 1.0, [0.01; 3]);
    let rel = Relaxation::trt_from_tau(0.9, MAGIC_TRT);
    for _ in 0..3 {
        block.apply_boundaries();
        block.stream_collide(rel);
    }
    block.src.set_parity(true);
    let mut scanned = block.src.clone();
    apply_boundaries::<D3Q19, _>(&mut scanned, &block.flags, &block.boundary);
    block.apply_boundaries();
    assert_same_bits(&scanned, &block.src, "carved, odd parity");
}

fn assert_force_close(listed: [f64; 3], scanned: [f64; 3], what: &str) {
    let scale = scanned.iter().fold(0.0f64, |m, c| m.max(c.abs()));
    assert!(scale > 0.0, "{what}: no force");
    for d in 0..3 {
        assert!(
            (listed[d] - scanned[d]).abs() <= 1e-12 * scale,
            "{what}: list {listed:?} vs scan {scanned:?}"
        );
    }
}

/// Momentum-exchange force from the list vs. the flag scan on the two
/// force set-ups of `physics_validation`: Couette shear on both plates
/// and the drag of a sphere in a channel.
#[test]
fn force_from_links_matches_flag_scan_on_couette_and_drag_setups() {
    let couette = boxed_block_flags(
        Shape::new(8, 12, 8, 1),
        [None, None, Some(CellFlags::NOSLIP), Some(CellFlags::VELOCITY), None, None],
    );
    let boundary = BoundaryParams { wall_velocity: [0.03, 0.0, 0.0], ..Default::default() };
    for scheme in [UpdateScheme::Pull, UpdateScheme::InPlace] {
        let mut block =
            BlockSim::from_flags_with_scheme(couette.clone(), boundary, 1.0, [0.0; 3], scheme);
        let rel = Relaxation::trt_from_viscosity(0.1);
        for step in 0..61 {
            block.sync_periodic([true, false, true]);
            block.apply_boundaries();
            if step % 20 == 0 || step % 20 == 1 {
                for mask in [CellFlags::NOSLIP, CellFlags::VELOCITY] {
                    let scanned =
                        momentum_exchange_force::<D3Q19, _>(&block.src, &block.flags, mask);
                    let what = format!("couette {scheme:?} step {step} {mask:?}");
                    assert_force_close(block.boundary_force(mask), scanned, &what);
                }
            }
            block.stream_collide(rel);
        }
    }

    let shape = Shape::new(24, 12, 12, 1);
    let wall = Some(CellFlags::NOSLIP);
    let mut channel = boxed_block_flags(
        shape,
        [Some(CellFlags::VELOCITY), Some(CellFlags::PRESSURE), wall, wall, wall, wall],
    );
    let sphere = CellFlags(CellFlags::OBSTACLE.0 | CellFlags::NOSLIP.0);
    for (x, y, z) in shape.interior().iter() {
        let d2 = (x as f64 - 12.0).powi(2) + (y as f64 - 5.5).powi(2) + (z as f64 - 5.5).powi(2);
        if d2 < 2.5f64.powi(2) {
            channel.set_flags(x, y, z, sphere);
        }
    }
    let mut block = BlockSim::from_flags(channel, boundary, 1.0, [0.0; 3]);
    let rel = Relaxation::trt_from_viscosity(0.08);
    // (Sampled once the flow has reached the sphere: on resting fluid its
    // net force is 0 and there is no scale to compare against.)
    for step in 0..99 {
        block.apply_boundaries();
        if step % 33 == 32 {
            for mask in [CellFlags::OBSTACLE, CellFlags::NOSLIP, CellFlags::PRESSURE] {
                let scanned = momentum_exchange_force::<D3Q19, _>(&block.src, &block.flags, mask);
                let what = format!("drag step {step} {mask:?}");
                assert_force_close(block.boundary_force(mask), scanned, &what);
            }
        }
        if step < 98 {
            block.stream_collide(rel);
        }
    }
    assert!(block.boundary_force(CellFlags::OBSTACLE)[0] > 0.0, "drag points downstream");
}

/// Editing `flags` or `boundary` without `rebuild_boundary_links` is
/// caught in debug builds; with it the list follows the edit.
#[test]
fn edited_block_needs_rebuilt_links() {
    let mut block = BlockSim::from_flags(cavity_flags(8), params(), 1.0, [0.0; 3]);
    let fresh = block.boundary_links().clone();
    // The −x wall becomes a pressure opening and the lid changes course.
    for y in 0..8 {
        for z in 0..8 {
            block.flags.set_flags(-1, y, z, CellFlags::PRESSURE);
        }
    }
    block.boundary.wall_velocity = [0.0, 0.05, 0.0];
    block.rebuild_boundary_links();
    assert_ne!(*block.boundary_links(), fresh);
    let mut scanned = block.src.clone();
    apply_boundaries::<D3Q19, _>(&mut scanned, &block.flags, &block.boundary);
    block.apply_boundaries();
    assert_same_bits(&scanned, &block.src, "after rebuild");
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "rebuild_boundary_links")]
fn stale_links_after_a_flag_edit_fail_in_debug_builds() {
    let mut block = BlockSim::from_flags(cavity_flags(8), params(), 1.0, [0.0; 3]);
    block.flags.set_flags(3, 3, 8, CellFlags::NOSLIP); // one lid cell stops moving
    block.apply_boundaries();
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "rebuild_boundary_links")]
fn stale_links_after_a_parameter_edit_fail_in_debug_builds() {
    let mut block = BlockSim::from_flags(cavity_flags(8), params(), 1.0, [0.0; 3]);
    block.boundary.pressure_density = 1.1;
    block.boundary_force(CellFlags::NOSLIP);
}
