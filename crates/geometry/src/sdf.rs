//! The implicit signed distance function `φ(p, Γ) = z · d(p, Γ)`
//! (paper §2.3, Eq. 9–11) and analytic reference distance fields.
//!
//! Negative values are *inside* the domain `Λ`, positive values outside —
//! the convention used by the voxelizer (`d(p, Γ) · z < 0` marks fluid).

use crate::mesh::{Aabb, TriMesh};
use crate::octree::TriangleOctree;
use crate::pseudonormals::Pseudonormals;
use crate::vec3::Vec3;

/// A domain described by a signed distance: negative inside.
pub trait SignedDistance: Send + Sync {
    /// Signed distance of `p` to the domain boundary `Γ`. It must be
    /// 1-Lipschitz (a distance, not just a sign): the voxelizer settles a
    /// whole box of cells by one value `|d|` greater than the box's reach.
    fn signed_distance(&self, p: Vec3) -> f64;

    /// An axis-aligned box containing the whole domain.
    fn bounding_box(&self) -> Aabb;

    /// True if `p` lies inside the domain.
    fn contains(&self, p: Vec3) -> bool {
        self.signed_distance(p) < 0.0
    }

    /// Color tag of the boundary region nearest to `p`, used to assign
    /// boundary conditions (paper: vertex colors of the closest triangle).
    /// `0` means "uncolored" (default wall).
    fn boundary_color(&self, _p: Vec3) -> u32 {
        0
    }
}

/// Mesh-based signed distance: octree-accelerated closest-triangle query,
/// sign from the angle-weighted pseudonormal of the closest feature.
pub struct MeshSdf {
    mesh: TriMesh,
    octree: TriangleOctree,
    normals: Pseudonormals,
}

impl MeshSdf {
    /// Builds the acceleration structures for `mesh`, which must be closed
    /// and outward-oriented for the sign to be meaningful.
    pub fn new(mesh: TriMesh) -> Self {
        let octree = TriangleOctree::build(&mesh);
        let normals = Pseudonormals::build(&mesh);
        MeshSdf { mesh, octree, normals }
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &TriMesh {
        &self.mesh
    }
}

impl SignedDistance for MeshSdf {
    fn signed_distance(&self, p: Vec3) -> f64 {
        let hit = self.octree.nearest(&self.mesh, p);
        let n = self.normals.of_feature(&self.mesh, hit.triangle, hit.feature);
        let d = hit.dist_sq.sqrt();
        if (p - hit.point).dot(n) >= 0.0 {
            d
        } else {
            -d
        }
    }

    fn bounding_box(&self) -> Aabb {
        self.octree.aabb()
    }

    fn boundary_color(&self, p: Vec3) -> u32 {
        let hit = self.octree.nearest(&self.mesh, p);
        // Majority color of the closest triangle's vertices; ties resolve
        // toward the numerically largest tag so inflow/outflow (tagged > 0)
        // win against untagged wall vertices at the seam.
        let tri = self.mesh.triangles[hit.triangle];
        let cols = [
            self.mesh.colors[tri[0] as usize],
            self.mesh.colors[tri[1] as usize],
            self.mesh.colors[tri[2] as usize],
        ];
        if cols[0] == cols[1] || cols[0] == cols[2] {
            cols[0]
        } else if cols[1] == cols[2] {
            cols[1]
        } else {
            *cols.iter().max().unwrap()
        }
    }
}

/// Analytic signed distance fields for validation and procedural domains.
pub enum AnalyticSdf {
    /// Sphere with `center` and `radius`.
    Sphere {
        /// Center point.
        center: Vec3,
        /// Radius.
        radius: f64,
    },
    /// Axis-aligned box.
    Box {
        /// The box.
        aabb: Aabb,
    },
    /// Capsule (cylinder with hemispherical caps) from `a` to `b`.
    Capsule {
        /// First endpoint of the axis.
        a: Vec3,
        /// Second endpoint of the axis.
        b: Vec3,
        /// Radius.
        radius: f64,
    },
    /// Union (minimum of distances). Exact outside, conservative inside.
    Union(Vec<AnalyticSdf>),
}

impl AnalyticSdf {
    /// Exact distance from `p` to the segment `a`–`b`.
    pub fn segment_distance(p: Vec3, a: Vec3, b: Vec3) -> f64 {
        let ab = b - a;
        let t = ((p - a).dot(ab) / ab.norm_sq()).clamp(0.0, 1.0);
        (a + ab * t).dist(p)
    }
}

impl SignedDistance for AnalyticSdf {
    fn signed_distance(&self, p: Vec3) -> f64 {
        match self {
            AnalyticSdf::Sphere { center, radius } => p.dist(*center) - radius,
            AnalyticSdf::Box { aabb } => {
                let c = aabb.center();
                let h = aabb.extents() * 0.5;
                let q = Vec3 {
                    x: (p.x - c.x).abs() - h.x,
                    y: (p.y - c.y).abs() - h.y,
                    z: (p.z - c.z).abs() - h.z,
                };
                let outside = Vec3 { x: q.x.max(0.0), y: q.y.max(0.0), z: q.z.max(0.0) }.norm();
                let inside = q.x.max(q.y).max(q.z).min(0.0);
                outside + inside
            }
            AnalyticSdf::Capsule { a, b, radius } => Self::segment_distance(p, *a, *b) - radius,
            AnalyticSdf::Union(parts) => {
                parts.iter().map(|s| s.signed_distance(p)).fold(f64::INFINITY, f64::min)
            }
        }
    }

    fn bounding_box(&self) -> Aabb {
        match self {
            AnalyticSdf::Sphere { center, radius } => Aabb::new(
                *center - Vec3 { x: *radius, y: *radius, z: *radius },
                *center + Vec3 { x: *radius, y: *radius, z: *radius },
            ),
            AnalyticSdf::Box { aabb } => *aabb,
            AnalyticSdf::Capsule { a, b, radius } => {
                let r = Vec3 { x: *radius, y: *radius, z: *radius };
                Aabb::new(a.min(*b) - r, a.max(*b) + r)
            }
            AnalyticSdf::Union(parts) => {
                let mut bb = Aabb::EMPTY;
                for s in parts {
                    bb.grow_box(&s.bounding_box());
                }
                bb
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::vec3;

    #[test]
    fn mesh_sdf_sign_and_distance_on_box() {
        let bb = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(2.0, 2.0, 2.0));
        let sdf = MeshSdf::new(TriMesh::make_box(bb));
        // Inside: negative with distance to the nearest face.
        let d = sdf.signed_distance(vec3(1.0, 1.0, 0.5));
        assert!((d + 0.5).abs() < 1e-12, "d = {d}");
        // Outside near a face.
        let d = sdf.signed_distance(vec3(1.0, 1.0, 3.0));
        assert!((d - 1.0).abs() < 1e-12);
        // Outside near an edge (the pseudonormal case).
        let d = sdf.signed_distance(vec3(3.0, 3.0, 1.0));
        assert!((d - 2.0f64.sqrt()).abs() < 1e-12);
        // Outside near a corner.
        let d = sdf.signed_distance(vec3(3.0, 3.0, 3.0));
        assert!((d - 3.0f64.sqrt()).abs() < 1e-12);
        // Just inside a corner (vertex pseudonormal must give negative).
        let d = sdf.signed_distance(vec3(0.05, 0.05, 0.05));
        assert!(d < 0.0);
    }

    #[test]
    fn mesh_sdf_matches_analytic_sphere() {
        let sdf_mesh = MeshSdf::new(TriMesh::make_sphere(vec3(0.0, 0.0, 0.0), 1.0, 32, 64));
        let sdf_exact = AnalyticSdf::Sphere { center: vec3(0.0, 0.0, 0.0), radius: 1.0 };
        for p in [
            vec3(0.0, 0.0, 0.0),
            vec3(0.5, 0.0, 0.0),
            vec3(0.0, 2.0, 0.0),
            vec3(1.5, 1.5, 1.5),
            vec3(-0.3, 0.4, -0.2),
        ] {
            let dm = sdf_mesh.signed_distance(p);
            let de = sdf_exact.signed_distance(p);
            assert!((dm - de).abs() < 0.02, "at {p:?}: mesh {dm} vs exact {de}");
            if de.abs() > 0.02 {
                assert_eq!(dm < 0.0, de < 0.0, "sign at {p:?}");
            }
        }
    }

    #[test]
    fn analytic_box_sdf() {
        let sdf = AnalyticSdf::Box { aabb: Aabb::new(vec3(-1.0, -1.0, -1.0), vec3(1.0, 1.0, 1.0)) };
        assert!((sdf.signed_distance(vec3(0.0, 0.0, 0.0)) + 1.0).abs() < 1e-12);
        assert!((sdf.signed_distance(vec3(2.0, 0.0, 0.0)) - 1.0).abs() < 1e-12);
        assert!((sdf.signed_distance(vec3(2.0, 2.0, 0.0)) - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn capsule_sdf() {
        let sdf =
            AnalyticSdf::Capsule { a: vec3(0.0, 0.0, 0.0), b: vec3(0.0, 0.0, 4.0), radius: 0.5 };
        assert!(sdf.contains(vec3(0.0, 0.0, 2.0)));
        assert!(sdf.contains(vec3(0.3, 0.0, 0.0)));
        assert!(!sdf.contains(vec3(0.6, 0.0, 2.0)));
        assert!((sdf.signed_distance(vec3(0.0, 0.0, 5.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn union_takes_minimum() {
        let u = AnalyticSdf::Union(vec![
            AnalyticSdf::Sphere { center: vec3(0.0, 0.0, 0.0), radius: 1.0 },
            AnalyticSdf::Sphere { center: vec3(3.0, 0.0, 0.0), radius: 1.0 },
        ]);
        assert!(u.contains(vec3(0.0, 0.0, 0.0)));
        assert!(u.contains(vec3(3.0, 0.0, 0.0)));
        assert!(!u.contains(vec3(1.5, 0.0, 0.0)));
        let bb = u.bounding_box();
        assert_eq!(bb.min, vec3(-1.0, -1.0, -1.0));
        assert_eq!(bb.max, vec3(4.0, 1.0, 1.0));
    }

    #[test]
    fn tube_cap_colors_via_nearest_triangle() {
        let m = TriMesh::make_tube(vec3(0.0, 0.0, 0.0), vec3(0.0, 0.0, 10.0), 1.0, 24, 7, 9);
        let sdf = MeshSdf::new(m);
        // Near the p0 cap face: color 7.
        assert_eq!(sdf.boundary_color(vec3(0.0, 0.0, -0.1)), 7);
        // Near the p1 cap face: color 9.
        assert_eq!(sdf.boundary_color(vec3(0.0, 0.0, 10.1)), 9);
    }
}
