//! Block classification and voxelization (paper §2.3).
//!
//! During initialization each block must decide whether it intersects the
//! domain `Λ` — with quick accepts/rejects through the block's circumsphere
//! and insphere radii — and, once assigned to a process, mark its lattice
//! cells: cells whose center lies inside `Λ` become fluid, the hull of the
//! fluid cells (morphological dilation w.r.t. the LBM stencil) becomes
//! boundary, and boundary cells are given a boundary condition according to
//! the color of the closest surface region (the paper uses vertex colors of
//! the closest triangle `t̂`).

use crate::mesh::Aabb;
use crate::sdf::SignedDistance;
use crate::vec3::{vec3, Vec3};
use trillium_field::{CellFlags, FlagField, FlagOps, Shape};

/// Number of cell centres of the `cells` grid over `bb` that lie inside
/// the domain — the one block classification of set-up.
///
/// Implements the paper's shortcut test on the block barycenter `b̃`: if
/// `|d(b̃, Γ)| > R(b)` the surface is farther than the circumsphere, the
/// whole block lies on one side and the answer (0 or every cell) costs one
/// distance query; only otherwise are the cell centers counted.
pub fn classify_block<S: SignedDistance + ?Sized>(sdf: &S, bb: &Aabb, cells: [usize; 3]) -> usize {
    let d = sdf.signed_distance(bb.center());
    let circum = bb.circumradius();
    if d > circum {
        0
    } else if d < -circum {
        cells.iter().product()
    } else {
        block_fluid_cells(sdf, bb, cells)
    }
}

/// Counts the cell centers of a block grid lying inside the domain,
/// testing every one (the exhaustive reference of [`classify_block`]).
pub fn block_fluid_cells<S: SignedDistance + ?Sized>(
    sdf: &S,
    bb: &Aabb,
    cells: [usize; 3],
) -> usize {
    let e = bb.extents();
    let d = vec3(e.x / cells[0] as f64, e.y / cells[1] as f64, e.z / cells[2] as f64);
    let mut count = 0;
    for k in 0..cells[2] {
        for j in 0..cells[1] {
            for i in 0..cells[0] {
                let p = bb.min
                    + vec3((i as f64 + 0.5) * d.x, (j as f64 + 0.5) * d.y, (k as f64 + 0.5) * d.z);
                if sdf.contains(p) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Configuration of the cell-classification pass.
#[derive(Clone, Debug)]
pub struct VoxelizeConfig {
    /// Stencil for the boundary-hull dilation (usually the D3Q19 stencil).
    pub stencil: Vec<[i8; 3]>,
    /// Maps a surface color to the boundary flag of hull cells nearest to
    /// surface regions of that color. Colors not listed become no-slip.
    pub color_map: Vec<(u32, CellFlags)>,
}

impl Default for VoxelizeConfig {
    fn default() -> Self {
        VoxelizeConfig { stencil: trillium_lattice::d3q19::C.to_vec(), color_map: Vec::new() }
    }
}

impl VoxelizeConfig {
    fn boundary_flag(&self, color: u32) -> CellFlags {
        self.color_map
            .iter()
            .find(|(c, _)| *c == color)
            .map(|&(_, f)| f)
            .unwrap_or(CellFlags::NOSLIP)
    }
}

/// Voxelizes one block: marks fluid cells (cell center inside `Λ`),
/// computes the boundary hull by dilation and assigns boundary conditions
/// by the surface color closest to each hull cell.
///
/// `origin` is the physical position of the lower corner of interior cell
/// `(0, 0, 0)`; `dx` the isotropic cell size. Ghost cells are classified
/// too (they mirror what the neighboring block computes for them).
pub fn voxelize_block<S: SignedDistance + ?Sized>(
    sdf: &S,
    origin: Vec3,
    dx: f64,
    shape: Shape,
    config: &VoxelizeConfig,
) -> FlagField {
    let mut flags = FlagField::new(shape);
    let center = |x: i32, y: i32, z: i32| {
        origin + vec3((x as f64 + 0.5) * dx, (y as f64 + 0.5) * dx, (z as f64 + 0.5) * dx)
    };
    for (x, y, z) in shape.with_ghosts().iter() {
        if sdf.contains(center(x, y, z)) {
            flags.set_flags(x, y, z, CellFlags::FLUID);
        }
    }
    // Hull: first mark generically as no-slip ...
    flags.dilate_hull(&config.stencil, CellFlags::NOSLIP);
    // ... then refine by surface color.
    if !config.color_map.is_empty() {
        let mut recolor = Vec::new();
        for (x, y, z) in shape.with_ghosts().iter() {
            if flags.flags(x, y, z).is_boundary() {
                let color = sdf.boundary_color(center(x, y, z));
                let f = config.boundary_flag(color);
                if f != CellFlags::NOSLIP {
                    recolor.push(((x, y, z), f));
                }
            }
        }
        for ((x, y, z), f) in recolor {
            flags.set_flags(x, y, z, f);
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sdf::AnalyticSdf;

    fn sphere() -> AnalyticSdf {
        AnalyticSdf::Sphere { center: vec3(0.0, 0.0, 0.0), radius: 1.0 }
    }

    #[test]
    fn classify_far_block_is_outside_by_shortcut() {
        let bb = Aabb::new(vec3(5.0, 5.0, 5.0), vec3(6.0, 6.0, 6.0));
        assert_eq!(classify_block(&sphere(), &bb, [8, 8, 8]), 0);
    }

    #[test]
    fn classify_center_block_fully_inside_by_shortcut() {
        let bb = Aabb::new(vec3(-0.2, -0.2, -0.2), vec3(0.2, 0.2, 0.2));
        assert_eq!(classify_block(&sphere(), &bb, [8, 8, 8]), 512);
    }

    #[test]
    fn classify_straddling_block_intersects() {
        let bb = Aabb::new(vec3(0.5, -0.5, -0.5), vec3(1.5, 0.5, 0.5));
        let n = classify_block(&sphere(), &bb, [8, 8, 8]);
        assert!(0 < n && n < 512, "{n} of 512 cells");
    }

    #[test]
    fn shortcut_and_exhaustive_agree() {
        // Scan a grid of blocks over the sphere: the count via the
        // shortcut path must equal pure exhaustive counting.
        let s = sphere();
        for bx in -2..2 {
            for by in -2..2 {
                for bz in -2..2 {
                    let lo = vec3(bx as f64 * 0.8, by as f64 * 0.8, bz as f64 * 0.8);
                    let bb = Aabb::new(lo, lo + vec3(0.8, 0.8, 0.8));
                    let n = block_fluid_cells(&s, &bb, [6, 6, 6]);
                    assert_eq!(classify_block(&s, &bb, [6, 6, 6]), n, "block at {lo:?}");
                }
            }
        }
    }

    #[test]
    fn voxelized_sphere_counts_match_volume() {
        let s = sphere();
        let shape = Shape::cube(24);
        let dx = 2.4 / 24.0;
        let origin = vec3(-1.2, -1.2, -1.2);
        let flags = voxelize_block(&s, origin, dx, shape, &VoxelizeConfig::default());
        let fluid = flags.count_fluid() as f64;
        let expect = 4.0 / 3.0 * std::f64::consts::PI / (dx * dx * dx);
        assert!((fluid - expect).abs() / expect < 0.05, "fluid {fluid} vs {expect}");
    }

    #[test]
    fn hull_separates_fluid_from_outside() {
        let s = sphere();
        let shape = Shape::cube(20);
        let dx = 2.4 / 20.0;
        let flags =
            voxelize_block(&s, vec3(-1.2, -1.2, -1.2), dx, shape, &VoxelizeConfig::default());
        // No interior fluid cell may have an unclassified stencil neighbor.
        for (x, y, z) in shape.interior().iter() {
            if !flags.flags(x, y, z).is_fluid() {
                continue;
            }
            for d in trillium_lattice::d3q19::C.iter().skip(1) {
                let f = flags.flags(x + d[0] as i32, y + d[1] as i32, z + d[2] as i32);
                assert!(
                    f.is_fluid() || f.is_boundary(),
                    "fluid at ({x},{y},{z}) touches unclassified cell"
                );
            }
        }
    }

    #[test]
    fn colored_caps_become_velocity_and_pressure() {
        // Tube along z with colored caps: inlet color 1 -> velocity BC,
        // outlet color 2 -> pressure BC.
        use crate::mesh::TriMesh;
        use crate::sdf::MeshSdf;
        let mesh = TriMesh::make_tube(vec3(0.0, 0.0, 0.0), vec3(0.0, 0.0, 3.0), 0.8, 24, 1, 2);
        let sdf = MeshSdf::new(mesh);
        let config = VoxelizeConfig {
            color_map: vec![(1, CellFlags::VELOCITY), (2, CellFlags::PRESSURE)],
            ..Default::default()
        };
        let shape = Shape::new(16, 16, 26, 1);
        let dx = 0.15;
        let origin = vec3(-1.2, -1.2, -0.3);
        let flags = voxelize_block(&sdf, origin, dx, shape, &config);
        assert!(flags.count_fluid() > 100);
        let count = |f: CellFlags| {
            shape.with_ghosts().iter().filter(|&(x, y, z)| flags.flags(x, y, z) == f).count()
        };
        assert!(count(CellFlags::VELOCITY) > 0, "no velocity cells");
        assert!(count(CellFlags::PRESSURE) > 0, "no pressure cells");
        assert!(count(CellFlags::NOSLIP) > 0, "no wall cells");
    }
}
