//! Hierarchical subdivision of geometric primitive sets into an octree
//! (paper §2.3, citing Payne & Toga) to accelerate closest-primitive
//! queries: instead of evaluating the distance against every primitive,
//! whole subtrees are pruned by comparing the query's current best
//! distance against node bounding boxes.
//!
//! [`Octree`] is generic over the primitive (it stores only indices and
//! boxes); [`TriangleOctree`] specializes it to mesh triangles — the
//! structure the paper uses for `t̂(p) = argmin_t d(p, t)` — and the
//! vascular tree reuses the same structure over capsule segments.

use crate::mesh::{Aabb, TriMesh};
use crate::tri_dist::{closest_point_triangle, Feature};
use crate::vec3::Vec3;

/// Maximum primitives per leaf before splitting.
const LEAF_SIZE: usize = 16;
/// Maximum tree depth (guards against degenerate inputs).
const MAX_DEPTH: usize = 12;

enum Node {
    Leaf { prims: Vec<u32> },
    Inner { children: Vec<(Aabb, Node)> },
}

/// A spatial octree over an indexed set of primitives.
pub struct Octree {
    root: Node,
    root_bb: Aabb,
}

impl Octree {
    /// Builds the octree from per-primitive bounding boxes.
    pub fn build(prim_bbs: &[Aabb]) -> Self {
        assert!(!prim_bbs.is_empty(), "cannot build an octree over nothing");
        let mut bb = Aabb::EMPTY;
        for b in prim_bbs {
            bb.grow_box(b);
        }
        let all: Vec<u32> = (0..prim_bbs.len() as u32).collect();
        let root = Self::build_node(prim_bbs, all, &bb, 0);
        Octree { root, root_bb: bb }
    }

    fn build_node(prim_bbs: &[Aabb], prims: Vec<u32>, bb: &Aabb, depth: usize) -> Node {
        if prims.len() <= LEAF_SIZE || depth >= MAX_DEPTH {
            return Node::Leaf { prims };
        }
        let c = bb.center();
        // Partition primitives among the eight octants by bounding-box
        // overlap; a primitive spanning several octants is replicated.
        let mut buckets: Vec<(Aabb, Vec<u32>)> = Vec::with_capacity(8);
        for oct in 0..8 {
            let min = Vec3 {
                x: if oct & 1 == 0 { bb.min.x } else { c.x },
                y: if oct & 2 == 0 { bb.min.y } else { c.y },
                z: if oct & 4 == 0 { bb.min.z } else { c.z },
            };
            let max = Vec3 {
                x: if oct & 1 == 0 { c.x } else { bb.max.x },
                y: if oct & 2 == 0 { c.y } else { bb.max.y },
                z: if oct & 4 == 0 { c.z } else { bb.max.z },
            };
            buckets.push((Aabb::new(min, max), Vec::new()));
        }
        for &t in &prims {
            let tb = &prim_bbs[t as usize];
            for (obb, list) in &mut buckets {
                let overlap = tb.min.x <= obb.max.x
                    && tb.max.x >= obb.min.x
                    && tb.min.y <= obb.max.y
                    && tb.max.y >= obb.min.y
                    && tb.min.z <= obb.max.z
                    && tb.max.z >= obb.min.z;
                if overlap {
                    list.push(t);
                }
            }
        }
        // If splitting does not reduce the largest bucket meaningfully
        // (e.g. all primitives cross the center), stop subdividing.
        let max_bucket = buckets.iter().map(|(_, l)| l.len()).max().unwrap_or(0);
        if max_bucket + max_bucket / 4 >= prims.len() {
            return Node::Leaf { prims };
        }
        let children = buckets
            .into_iter()
            .filter(|(_, l)| !l.is_empty())
            .map(|(obb, l)| {
                let node = Self::build_node(prim_bbs, l, &obb, depth + 1);
                (obb, node)
            })
            .collect();
        Node::Inner { children }
    }

    /// Bounding box of the whole primitive set.
    pub fn aabb(&self) -> Aabb {
        self.root_bb
    }

    /// Finds the primitive minimizing `dist_sq_of(i)` with best-first
    /// descent and box pruning. Returns `(index, dist_sq)`.
    pub fn nearest(&self, p: Vec3, dist_sq_of: impl FnMut(usize) -> f64) -> (usize, f64) {
        self.nearest_bounded(p, |b2| b2, dist_sq_of)
    }

    /// [`Octree::nearest`] with a caller's pruning bound: `bound(b²)`
    /// turns the squared distance `b²` from `p` to a node box into a lower
    /// bound of `dist_sq_of` over the primitives whose point nearest to `p`
    /// lies in that box, and must not decrease as `b²` grows. A node is
    /// skipped once its bound reaches the best value found. Plain point
    /// metrics take `b²` itself; the capsules of the vascular tree, whose
    /// metric is shifted, take a bound that includes the shift. A query no
    /// primitive compares below infinity at (a NaN point) returns
    /// `(usize::MAX, f64::INFINITY)`.
    pub fn nearest_bounded(
        &self,
        p: Vec3,
        bound: impl Fn(f64) -> f64,
        mut dist_sq_of: impl FnMut(usize) -> f64,
    ) -> (usize, f64) {
        let mut best = (usize::MAX, f64::INFINITY);
        Self::nearest_rec(&self.root, p, &bound, &mut dist_sq_of, &mut best);
        best
    }

    fn nearest_rec<B: Fn(f64) -> f64, F: FnMut(usize) -> f64>(
        node: &Node,
        p: Vec3,
        bound: &B,
        dist_sq_of: &mut F,
        best: &mut (usize, f64),
    ) {
        match node {
            Node::Leaf { prims } => {
                for &t in prims {
                    let d2 = dist_sq_of(t as usize);
                    if d2 < best.1 {
                        *best = (t as usize, d2);
                    }
                }
            }
            Node::Inner { children } => {
                // Visit children closest-first for effective pruning: a
                // stable insertion sort of the (at most eight) box
                // distances on the stack.
                let mut order = [(0.0f64, 0); 8];
                for (i, (bb, _)) in children.iter().enumerate() {
                    let d2 = bb.dist_sq(p);
                    let mut j = i;
                    while j > 0 && order[j - 1].0.total_cmp(&d2).is_gt() {
                        order[j] = order[j - 1];
                        j -= 1;
                    }
                    order[j] = (d2, i);
                }
                for &(d2, i) in &order[..children.len()] {
                    if bound(d2) >= best.1 {
                        break;
                    }
                    Self::nearest_rec(&children[i].1, p, bound, dist_sq_of, best);
                }
            }
        }
    }
}

/// Result of a nearest-triangle query.
#[derive(Copy, Clone, Debug)]
pub struct NearestHit {
    /// Index of the closest triangle `t̂(p)`.
    pub triangle: usize,
    /// Closest point on that triangle.
    pub point: Vec3,
    /// The feature of the triangle the closest point lies on.
    pub feature: Feature,
    /// Squared distance to the query point.
    pub dist_sq: f64,
}

/// An octree over the triangles of one mesh.
pub struct TriangleOctree {
    tree: Octree,
}

impl TriangleOctree {
    /// Builds the octree over all triangles of `mesh`.
    pub fn build(mesh: &TriMesh) -> Self {
        assert!(mesh.num_triangles() > 0, "cannot build an octree over an empty mesh");
        let tri_bbs: Vec<Aabb> = (0..mesh.num_triangles()).map(|t| mesh.tri_aabb(t)).collect();
        TriangleOctree { tree: Octree::build(&tri_bbs) }
    }

    /// Bounding box of the whole triangle set.
    pub fn aabb(&self) -> Aabb {
        self.tree.aabb()
    }

    /// Finds the triangle of `mesh` closest to `p` (the `t̂(p)` of the
    /// paper).
    pub fn nearest(&self, mesh: &TriMesh, p: Vec3) -> NearestHit {
        let (t, d2) = self.tree.nearest(p, |i| {
            let [a, b, c] = mesh.tri(i);
            crate::tri_dist::dist_sq_triangle(p, a, b, c)
        });
        // Recompute the winner's closest point and feature once.
        let [a, b, c] = mesh.tri(t);
        let (cp, feature) = closest_point_triangle(p, a, b, c);
        NearestHit { triangle: t, point: cp, feature, dist_sq: d2 }
    }

    /// Brute-force nearest triangle — reference implementation for tests.
    pub fn nearest_brute_force(mesh: &TriMesh, p: Vec3) -> NearestHit {
        let mut best = NearestHit {
            triangle: usize::MAX,
            point: Vec3::ZERO,
            feature: Feature::Face,
            dist_sq: f64::INFINITY,
        };
        for t in 0..mesh.num_triangles() {
            let [a, b, c] = mesh.tri(t);
            let (cp, feature) = closest_point_triangle(p, a, b, c);
            let d2 = cp.dist_sq(p);
            if d2 < best.dist_sq {
                best = NearestHit { triangle: t, point: cp, feature, dist_sq: d2 };
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::vec3;

    #[test]
    fn octree_matches_brute_force_on_sphere() {
        let m = TriMesh::make_sphere(vec3(0.0, 0.0, 0.0), 1.0, 16, 32);
        let tree = TriangleOctree::build(&m);
        let queries = [
            vec3(2.0, 0.0, 0.0),
            vec3(0.0, 0.0, 0.0),
            vec3(0.5, 0.5, 0.5),
            vec3(-3.0, 1.0, 0.2),
            vec3(0.1, -0.2, 0.95),
            vec3(10.0, 10.0, 10.0),
        ];
        for p in queries {
            let fast = tree.nearest(&m, p);
            let slow = TriangleOctree::nearest_brute_force(&m, p);
            assert!(
                (fast.dist_sq - slow.dist_sq).abs() < 1e-12,
                "distance mismatch at {p:?}: {} vs {}",
                fast.dist_sq,
                slow.dist_sq
            );
        }
    }

    #[test]
    fn sphere_distance_is_radius_offset() {
        let m = TriMesh::make_sphere(vec3(0.0, 0.0, 0.0), 1.0, 48, 96);
        let tree = TriangleOctree::build(&m);
        // A point at radius 3: distance must be close to 2.
        let hit = tree.nearest(&m, vec3(3.0, 0.0, 0.0));
        assert!((hit.dist_sq.sqrt() - 2.0).abs() < 0.01);
        // Center: distance close to 1 (inradius of the tessellation).
        let hit = tree.nearest(&m, vec3(0.0, 0.0, 0.0));
        assert!((hit.dist_sq.sqrt() - 1.0).abs() < 0.01);
    }

    #[test]
    fn octree_on_many_random_queries() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let m = TriMesh::make_tube(vec3(0.0, 0.0, 0.0), vec3(0.0, 0.0, 10.0), 1.0, 32, 1, 2);
        let tree = TriangleOctree::build(&m);
        for _ in 0..200 {
            let p =
                vec3(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0), rng.gen_range(-2.0..12.0));
            let fast = tree.nearest(&m, p);
            let slow = TriangleOctree::nearest_brute_force(&m, p);
            assert!((fast.dist_sq - slow.dist_sq).abs() < 1e-12, "mismatch at {p:?}");
        }
    }

    #[test]
    fn generic_octree_over_points() {
        // Use degenerate boxes as point primitives.
        let pts: Vec<Vec3> = (0..100)
            .map(|i| vec3((i % 10) as f64, (i / 10) as f64, ((i * 7) % 5) as f64))
            .collect();
        let bbs: Vec<Aabb> = pts.iter().map(|&p| Aabb::new(p, p)).collect();
        let tree = Octree::build(&bbs);
        let q = vec3(4.3, 6.8, 1.2);
        let (i, d2) = tree.nearest(q, |i| pts[i].dist_sq(q));
        // Verify against brute force.
        let (bi, bd2) = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| (i, p.dist_sq(q)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(i, bi);
        assert!((d2 - bd2).abs() < 1e-15);
        // A NaN query finds nothing instead of panicking in the ordering.
        let nan = vec3(f64::NAN, 6.8, 1.2);
        assert_eq!(tree.nearest(nan, |i| pts[i].dist_sq(nan)), (usize::MAX, f64::INFINITY));
    }
}
