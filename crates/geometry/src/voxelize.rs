//! Block classification and voxelization (paper §2.3).
//!
//! During initialization each block must decide whether it intersects the
//! domain `Λ` — with quick accepts/rejects through the block's circumsphere
//! radius, which one descent applies down to single cells — and, once
//! assigned to a process, mark its lattice cells: cells whose center lies
//! inside `Λ` become fluid, the hull of the fluid cells (morphological
//! dilation w.r.t. the LBM stencil) becomes boundary, and boundary cells
//! are given a boundary condition according to the color of the closest
//! surface region (the paper uses vertex colors of the closest triangle
//! `t̂`).

use crate::mesh::Aabb;
use crate::sdf::SignedDistance;
use crate::vec3::{vec3, Vec3};
use trillium_field::{CellFlags, FlagField, FlagOps, Shape};

/// Number of cell centres of the `cells` grid over `bb` that lie inside
/// the domain — the one block classification of set-up.
///
/// Generalizes the paper's shortcut test on the block barycenter `b̃`
/// (`|d(b̃, Γ)| > R(b)`: the whole block lies on one side) down to single
/// cells: [`descend`] settles every sub-box the surface stays away from
/// with one distance query, so a block the surface misses costs one query
/// and a carved one a number proportional to the cells along its surface.
pub fn classify_block<S: SignedDistance + ?Sized>(sdf: &S, bb: &Aabb, cells: [usize; 3]) -> usize {
    let e = bb.extents();
    let d = vec3(e.x / cells[0] as f64, e.y / cells[1] as f64, e.z / cells[2] as f64);
    let centre = |[i, j, k]: [i32; 3]| {
        bb.min + vec3((i as f64 + 0.5) * d.x, (j as f64 + 0.5) * d.y, (k as f64 + 0.5) * d.z)
    };
    let mut count = 0;
    descend(sdf, &centre, [0; 3], cells.map(|c| c as i32), &mut |lo, hi| {
        count += (0..3).map(|a| (hi[a] - lo[a]) as usize).product::<usize>();
    });
    count
}

/// Walks the index box `lo..hi` of a cell grid whose cell `[i, j, k]` has
/// its centre at `centre([i, j, k])`, and hands every sub-box whose cell
/// centres all lie inside the domain to `inside` as `(lo, hi)`; the boxes
/// are disjoint and cover exactly the inside cells.
///
/// A box costs one distance query, at the midpoint `m` of its two corner
/// cell centres. The signed distance is 1-Lipschitz, so when `|sd(m)|`
/// exceeds the distance `R` from `m` to the box's farthest centre, every
/// centre has the sign of `sd(m)`. A small margin, relative to the
/// coordinates, covers the rounding of `m`, `R` and the distances. An
/// unsettled box is halved along its longest axis; a single cell is tested
/// with [`SignedDistance::contains`] at its centre, as the exhaustive
/// [`block_fluid_cells`] tests it. `centre` must be nondecreasing along
/// each axis, so that every centre of a box lies in the box spanned by its
/// corner centres.
fn descend<S, C, F>(sdf: &S, centre: &C, lo: [i32; 3], hi: [i32; 3], inside: &mut F)
where
    S: SignedDistance + ?Sized,
    C: Fn([i32; 3]) -> Vec3,
    F: FnMut([i32; 3], [i32; 3]),
{
    let n = [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]];
    if n.contains(&0) {
        return;
    }
    let first = centre(lo);
    if n == [1, 1, 1] {
        if sdf.contains(first) {
            inside(lo, hi);
        }
        return;
    }
    let last = centre([hi[0] - 1, hi[1] - 1, hi[2] - 1]);
    let m = (first + last) * 0.5;
    let r = 0.5 * first.dist(last);
    let sd = sdf.signed_distance(m);
    let margin = 1e-9 * (r + sd.abs() + m.x.abs() + m.y.abs() + m.z.abs());
    if sd.abs() > r + margin {
        if sd < 0.0 {
            inside(lo, hi);
        }
        return;
    }
    let axis = if n[0] >= n[1] && n[0] >= n[2] {
        0
    } else if n[1] >= n[2] {
        1
    } else {
        2
    };
    let mid = lo[axis] + n[axis] / 2;
    let (mut lower_hi, mut upper_lo) = (hi, lo);
    lower_hi[axis] = mid;
    upper_lo[axis] = mid;
    descend(sdf, centre, lo, lower_hi, inside);
    descend(sdf, centre, upper_lo, hi, inside);
}

/// Counts the cell centers of a block grid lying inside the domain,
/// testing every one: the exhaustive reference the tests hold
/// [`classify_block`] to.
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
    let region = shape.with_ghosts();
    let lo = [region.x.start, region.y.start, region.z.start];
    let hi = [region.x.end, region.y.end, region.z.end];
    descend(sdf, &|[x, y, z]| center(x, y, z), lo, hi, &mut |lo, hi| {
        let len = (hi[0] - lo[0]) as usize;
        for z in lo[2]..hi[2] {
            for y in lo[1]..hi[1] {
                let start = shape.idx(lo[0], y, z);
                flags.data_mut()[start..start + len].fill(CellFlags::FLUID.0);
            }
        }
    });
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

    /// The per-cell voxelizer the descent replaced: every centre of the
    /// ghost-inclusive grid tested on its own, then the same hull and
    /// recolouring.
    fn voxelize_per_cell(
        sdf: &dyn SignedDistance,
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
        flags.dilate_hull(&config.stencil, CellFlags::NOSLIP);
        for (x, y, z) in shape.with_ghosts().iter() {
            if flags.flags(x, y, z).is_boundary() {
                let f = config.boundary_flag(sdf.boundary_color(center(x, y, z)));
                flags.set_flags(x, y, z, f);
            }
        }
        flags
    }

    /// Sphere, capsule, the benchmark's 5-generation coronary tree and a
    /// capped mesh tube (inlet colour 1, outlet colour 2).
    fn domains() -> Vec<(&'static str, Box<dyn SignedDistance>)> {
        use crate::mesh::TriMesh;
        use crate::sdf::MeshSdf;
        use crate::vascular::{VascularTree, VascularTreeParams};
        let tree = VascularTree::generate(&VascularTreeParams {
            generations: 5,
            root_radius: 1.2,
            root_length: 7.0,
            ..Default::default()
        });
        let tube = TriMesh::make_tube(vec3(0.0, 0.0, 0.0), vec3(0.0, 0.0, 3.0), 0.8, 24, 1, 2);
        vec![
            ("sphere", Box::new(sphere())),
            (
                "capsule",
                Box::new(AnalyticSdf::Capsule {
                    a: vec3(0.0, 0.0, 0.0),
                    b: vec3(3.0, 1.0, 0.5),
                    radius: 0.3,
                }),
            ),
            ("tree", Box::new(tree)),
            ("mesh tube", Box::new(MeshSdf::new(tube))),
        ]
    }

    /// Seeded grids near the surface of `sdf`: `(origin, spacing, cells)`,
    /// cycling through 3³ probes, one-cell-wide slabs, non-cubic and cubic
    /// grids, with spacings from 1 % to 8 % of the domain (anisotropic,
    /// the first component isotropic for `voxelize_block`) and origins at
    /// random fractions of a cell.
    fn seeded_grids(
        sdf: &dyn SignedDistance,
        seed: u64,
        count: usize,
    ) -> Vec<(Vec3, Vec3, [usize; 3])> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bb = sdf.bounding_box();
        let e = bb.extents();
        let scale = e.x.max(e.y).max(e.z);
        (0..count)
            .map(|i| {
                let cells = match i % 4 {
                    0 => [3; 3],
                    1 => {
                        let mut c = [rng.gen_range(2..=12), rng.gen_range(2..=12), 1];
                        c.swap(2, rng.gen_range(0..3));
                        c
                    }
                    2 => [rng.gen_range(2..=13), rng.gen_range(2..=13), rng.gen_range(2..=13)],
                    _ => [rng.gen_range(4..=10); 3],
                };
                let h = scale * rng.gen_range(0.01..0.08);
                let spacing = vec3(h, h * rng.gen_range(0.7..1.4), h * rng.gen_range(0.7..1.4));
                let half = vec3(
                    spacing.x * cells[0] as f64,
                    spacing.y * cells[1] as f64,
                    spacing.z * cells[2] as f64,
                ) * 0.5;
                // A centre the surface passes within reach of.
                let reach = half.norm();
                let centre = loop {
                    let p = bb.min
                        + vec3(
                            rng.gen_range(-0.1..1.1) * e.x,
                            rng.gen_range(-0.1..1.1) * e.y,
                            rng.gen_range(-0.1..1.1) * e.z,
                        );
                    if sdf.signed_distance(p).abs() < reach {
                        break p;
                    }
                };
                let frac = vec3(rng.gen(), rng.gen(), rng.gen());
                let shift = vec3(frac.x * spacing.x, frac.y * spacing.y, frac.z * spacing.z);
                (centre - half + shift, spacing, cells)
            })
            .collect()
    }

    /// The descent against testing every centre: equal counts on
    /// anisotropic grids, and equal flag bytes (ghost layer, hull and
    /// recolouring included) on the ghost-inclusive grid.
    #[test]
    fn descent_equals_exhaustive_on_every_domain() {
        let config = VoxelizeConfig {
            color_map: vec![(1, CellFlags::VELOCITY), (2, CellFlags::PRESSURE)],
            ..Default::default()
        };
        for (seed, (name, sdf)) in domains().into_iter().enumerate() {
            let sdf = sdf.as_ref();
            let mut carved = 0;
            for (i, (origin, h, cells)) in
                seeded_grids(sdf, seed as u64, 40).into_iter().enumerate()
            {
                let size =
                    vec3(h.x * cells[0] as f64, h.y * cells[1] as f64, h.z * cells[2] as f64);
                let bb = Aabb::new(origin, origin + size);
                let n = block_fluid_cells(sdf, &bb, cells);
                assert_eq!(classify_block(sdf, &bb, cells), n, "{name}, grid {i}: {cells:?}");
                carved += (0 < n && n < cells.iter().product()) as usize;

                let shape = Shape::new(cells[0], cells[1], cells[2], 1);
                let got = voxelize_block(sdf, origin, h.x, shape, &config);
                let want = voxelize_per_cell(sdf, origin, h.x, shape, &config);
                assert!(got.data() == want.data(), "{name}, grid {i}: {cells:?} flags differ");
            }
            assert!(carved >= 10, "{name}: only {carved} of 40 grids are carved");
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
