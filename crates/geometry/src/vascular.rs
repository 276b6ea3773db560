//! Procedural coronary-artery-tree generator.
//!
//! The paper's weak- and strong-scaling experiments (§4.3) run on a human
//! coronary tree extracted from a CTA dataset — which we do not have. This
//! module generates the closest synthetic equivalent: a recursively
//! bifurcating vessel tree obeying Murray's law (`r_p³ = r_l³ + r_r³`) with
//! asymmetric child radii, randomized branching planes and mild
//! tortuosity. The defining property the experiments depend on is
//! reproduced: the tree fills only a fraction of a percent of its bounding
//! box, and the fraction of fluid cells per block grows as blocks shrink
//! toward the vessel diameter.
//!
//! The tree is represented as a union of capsule segments with an exact
//! signed distance ([`VascularTree::signed_distance`] via an octree over
//! segments), and can be converted to a watertight triangle mesh with
//! colored inflow/outflow caps through marching tetrahedra
//! ([`VascularTree::to_mesh`]).

use crate::mesh::{Aabb, TriMesh};
use crate::octree::Octree;
use crate::sdf::{AnalyticSdf, SignedDistance};
use crate::vec3::{vec3, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One capsule segment of the vessel tree.
#[derive(Copy, Clone, Debug)]
pub struct Segment {
    /// Proximal endpoint.
    pub a: Vec3,
    /// Distal endpoint.
    pub b: Vec3,
    /// Vessel radius of this segment.
    pub radius: f64,
}

impl Segment {
    fn aabb(&self) -> Aabb {
        let r = vec3(self.radius, self.radius, self.radius);
        Aabb::new(self.a.min(self.b) - r, self.a.max(self.b) + r)
    }

    fn signed_distance(&self, p: Vec3) -> f64 {
        AnalyticSdf::segment_distance(p, self.a, self.b) - self.radius
    }
}

/// Parameters of the procedural tree. The defaults produce a coronary-like
/// tree with a fluid fraction of a few tenths of a percent of the bounding
/// box, matching the ~0.3 % the paper reports for its CTA geometry.
#[derive(Copy, Clone, Debug)]
pub struct VascularTreeParams {
    /// RNG seed; the tree is fully deterministic given the seed.
    pub seed: u64,
    /// Number of bifurcation generations.
    pub generations: usize,
    /// Radius of the root vessel.
    pub root_radius: f64,
    /// Length of the root branch (tip to first bifurcation).
    pub root_length: f64,
    /// Child branch length as a fraction of the parent length.
    pub length_ratio: f64,
    /// Murray's-law exponent (3 for laminar flow).
    pub murray_exponent: f64,
    /// Radius asymmetry between siblings in [0, 0.8]: 0 = symmetric.
    pub asymmetry: f64,
    /// Mean total opening angle between siblings (radians).
    pub branch_angle: f64,
    /// Random jitter of branch directions (radians).
    pub jitter: f64,
    /// Straight sub-segments per branch (for mild curvature).
    pub segments_per_branch: usize,
    /// Tortuosity: lateral displacement per sub-segment as a fraction of
    /// the branch radius.
    pub tortuosity: f64,
}

impl Default for VascularTreeParams {
    fn default() -> Self {
        VascularTreeParams {
            seed: 0xC0DE_5EED,
            generations: 7,
            root_radius: 1.0,
            root_length: 8.0,
            length_ratio: 0.82,
            murray_exponent: 3.0,
            asymmetry: 0.35,
            branch_angle: 1.1,
            jitter: 0.25,
            segments_per_branch: 3,
            tortuosity: 0.3,
        }
    }
}

/// The generated tree: capsule segments plus inlet/outlet cap metadata and
/// a segment octree for fast signed-distance queries.
pub struct VascularTree {
    /// All capsule segments.
    pub segments: Vec<Segment>,
    /// Inlet cap: position (root proximal end) and vessel radius there.
    pub inlet: (Vec3, f64),
    /// Outlet caps: distal tips of all leaf branches.
    pub outlets: Vec<(Vec3, f64)>,
    tree: Octree,
    bb: Aabb,
    /// Largest segment radius; shifts the capsule metric so the octree's
    /// nearest query minimizes a nonnegative value (see `signed_distance`).
    max_radius: f64,
}

impl VascularTree {
    /// Generates the tree from `params`.
    pub fn generate(params: &VascularTreeParams) -> Self {
        assert!(params.generations >= 1 && params.segments_per_branch >= 1);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut segments = Vec::new();
        let mut outlets = Vec::new();

        struct Todo {
            start: Vec3,
            dir: Vec3,
            radius: f64,
            length: f64,
            generation: usize,
        }
        let root = Todo {
            start: Vec3::ZERO,
            dir: vec3(0.0, 0.0, 1.0),
            radius: params.root_radius,
            length: params.root_length,
            generation: 0,
        };
        let inlet = (root.start, root.radius);

        let mut stack = vec![root];
        while let Some(t) = stack.pop() {
            // Grow the branch as a mildly tortuous polyline.
            let n = params.segments_per_branch;
            let mut p = t.start;
            let mut d = t.dir;
            let step = t.length / n as f64;
            for _ in 0..n {
                // Lateral perturbation orthogonal to the current direction.
                let side = d.any_orthonormal();
                let side2 = d.cross(side);
                let amp = params.tortuosity * t.radius;
                let wobble = side * rng.gen_range(-amp..=amp) + side2 * rng.gen_range(-amp..=amp);
                let q = p + d * step + wobble;
                segments.push(Segment { a: p, b: q, radius: t.radius });
                d = (q - p).normalized();
                p = q;
            }

            if t.generation + 1 >= params.generations {
                outlets.push((p, t.radius));
                continue;
            }

            // Bifurcate: Murray's law with asymmetry.
            let asym = params.asymmetry * rng.gen_range(0.5..=1.0);
            // Flow split fractions.
            let (fl, fr) = (0.5 * (1.0 + asym), 0.5 * (1.0 - asym));
            let e = params.murray_exponent;
            let rl = t.radius * fl.powf(1.0 / e);
            let rr = t.radius * fr.powf(1.0 / e);

            // Branching plane: random orientation around the parent axis.
            let u = d.any_orthonormal();
            let v = d.cross(u);
            let phi = rng.gen_range(0.0..std::f64::consts::TAU);
            let plane = u * phi.cos() + v * phi.sin();

            // Smaller child bends away more (approximate optimality).
            let total = params.branch_angle + rng.gen_range(-params.jitter..=params.jitter);
            let ang_l = total * (rr * rr) / (rl * rl + rr * rr);
            let ang_r = total - ang_l;

            let rot = |axis_dir: Vec3, angle: f64| -> Vec3 {
                (d * angle.cos() + axis_dir * angle.sin()).normalized()
            };
            let len = t.length * params.length_ratio;
            stack.push(Todo {
                start: p,
                dir: rot(plane, ang_l),
                radius: rl,
                length: len * rng.gen_range(0.85..=1.15),
                generation: t.generation + 1,
            });
            stack.push(Todo {
                start: p,
                dir: rot(-plane, ang_r),
                radius: rr,
                length: len * rng.gen_range(0.85..=1.15),
                generation: t.generation + 1,
            });
        }

        let bbs: Vec<Aabb> = segments.iter().map(Segment::aabb).collect();
        let tree = Octree::build(&bbs);
        let mut bb = Aabb::EMPTY;
        for b in &bbs {
            bb.grow_box(b);
        }
        let max_radius = segments.iter().map(|s| s.radius).fold(0.0, f64::max);
        VascularTree { segments, inlet, outlets, tree, bb, max_radius }
    }

    /// Number of branches implied by the generation count (diagnostic).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Extracts a watertight surface mesh via marching tetrahedra and
    /// colors the inlet cap region with [`Self::INLET_COLOR`] and all
    /// outlet tip regions with [`Self::OUTLET_COLOR`].
    pub fn to_mesh(&self, cell: f64) -> TriMesh {
        let mut mesh = crate::isosurface::marching_tetrahedra(self, cell);
        for (i, v) in mesh.vertices.iter().enumerate() {
            let (ip, ir) = self.inlet;
            if v.dist(ip) < 1.5 * ir {
                mesh.colors[i] = Self::INLET_COLOR;
                continue;
            }
            for &(op, or) in &self.outlets {
                if v.dist(op) < 1.5 * or {
                    mesh.colors[i] = Self::OUTLET_COLOR;
                    break;
                }
            }
        }
        mesh
    }

    /// Vertex color tagging the inlet cap.
    pub const INLET_COLOR: u32 = 1;
    /// Vertex color tagging outlet caps.
    pub const OUTLET_COLOR: u32 = 2;

    /// Monte-Carlo estimate of the tree's volume fraction of its bounding
    /// box (the paper's geometry covers ~0.3 %).
    pub fn fluid_fraction_estimate(&self, samples: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let bb = self.bounding_box();
        let e = bb.extents();
        let mut inside = 0usize;
        for _ in 0..samples {
            let p = bb.min
                + vec3(
                    rng.gen_range(0.0..=1.0) * e.x,
                    rng.gen_range(0.0..=1.0) * e.y,
                    rng.gen_range(0.0..=1.0) * e.z,
                );
            if self.contains(p) {
                inside += 1;
            }
        }
        inside as f64 / samples as f64
    }
}

impl SignedDistance for VascularTree {
    fn signed_distance(&self, p: Vec3) -> f64 {
        // The minimum of capsule signed distances is the exact signed
        // distance of the union outside and a correct-sign bound inside.
        // Capsule distances go negative, so the octree minimizes their
        // square shifted by the largest radius, (d + shift)² with
        // d + shift >= 0, and the result is sqrt(best) - shift.
        //
        // Pruning: a capsule's surface point nearest to `p` lies inside its
        // segment box (radius included), so a node box at distance `b > 0`
        // only holds capsules that are nearest there with d >= b, that is
        // (d + shift)² >= (b + shift)²; a box containing `p` bounds nothing
        // below 0. `slack` absorbs the rounding of `b` and `d`, so the
        // minimum, and every bit of the result, is that of all segments.
        let shift = self.max_radius;
        let slack = 1e-9 * (p.norm() + self.bb.min.norm().max(self.bb.max.norm()));
        let bound = |b2: f64| {
            if b2 > 0.0 {
                let b = (b2.sqrt() + shift - slack).max(0.0);
                b * b
            } else {
                0.0
            }
        };
        let (_, d2) = self.tree.nearest_bounded(p, bound, |i| {
            let d = self.segments[i].signed_distance(p) + shift;
            debug_assert!(d >= 0.0);
            d * d
        });
        d2.sqrt() - shift
    }

    fn bounding_box(&self) -> Aabb {
        self.bb
    }

    fn boundary_color(&self, p: Vec3) -> u32 {
        let (ip, ir) = self.inlet;
        if p.dist(ip) < 1.5 * ir {
            return Self::INLET_COLOR;
        }
        for &(op, or) in &self.outlets {
            if p.dist(op) < 1.5 * or {
                return Self::OUTLET_COLOR;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> VascularTree {
        VascularTree::generate(&VascularTreeParams {
            generations: 5,
            segments_per_branch: 2,
            ..Default::default()
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_tree();
        let b = small_tree();
        assert_eq!(a.num_segments(), b.num_segments());
        for (sa, sb) in a.segments.iter().zip(&b.segments) {
            assert_eq!(sa.a, sb.a);
            assert_eq!(sa.radius, sb.radius);
        }
    }

    #[test]
    fn branch_and_outlet_counts() {
        let t = small_tree();
        // 5 generations of binary branching: 2^5 - 1 = 31 branches of 2
        // segments each; 2^4 = 16 leaf outlets.
        assert_eq!(t.num_segments(), 31 * 2);
        assert_eq!(t.outlets.len(), 16);
    }

    #[test]
    fn murrays_law_shrinks_radii() {
        let t = small_tree();
        let rmax = t.segments.iter().map(|s| s.radius).fold(0.0, f64::max);
        let rmin = t.segments.iter().map(|s| s.radius).fold(f64::INFINITY, f64::min);
        assert_eq!(rmax, 1.0);
        // After 4 bifurcations radii must have shrunk substantially but
        // never below the symmetric Murray bound 2^(-4/3).
        assert!(rmin < 0.6);
        assert!(rmin > (0.5f64 - 0.35 * 0.5).powf(4.0 / 3.0) * 0.9);
    }

    /// The pruned octree query returns, bit for bit, the minimum over all
    /// segments taken with the same arithmetic: `sqrt(min (d + shift)²) −
    /// shift`. Half the points are uniform around the benchmark's tree,
    /// half near a vessel wall, where the pruning bound is tightest.
    #[test]
    fn signed_distance_matches_brute_force() {
        use rand::{Rng, SeedableRng};
        let t = VascularTree::generate(&VascularTreeParams {
            generations: 5,
            root_radius: 1.2,
            root_length: 7.0,
            ..Default::default()
        });
        let shift = t.segments.iter().map(|s| s.radius).fold(0.0, f64::max);
        let bb = t.bounding_box();
        let e = bb.extents();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for i in 0..10_000 {
            let p = if i % 2 == 0 {
                bb.min
                    + vec3(
                        rng.gen_range(-0.1..=1.1) * e.x,
                        rng.gen_range(-0.1..=1.1) * e.y,
                        rng.gen_range(-0.1..=1.1) * e.z,
                    )
            } else {
                let s = t.segments[rng.gen_range(0..t.segments.len())];
                let dir =
                    vec3(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0), 1.0).normalized();
                let axis = s.a + (s.b - s.a) * rng.gen_range(0.0..1.0);
                axis + dir * (s.radius * rng.gen_range(0.5..1.5))
            };
            let best = t.segments.iter().fold(f64::INFINITY, |best, s| {
                let d = s.signed_distance(p) + shift;
                best.min(d * d)
            });
            let slow = best.sqrt() - shift;
            let fast = t.signed_distance(p);
            assert_eq!(fast.to_bits(), slow.to_bits(), "at {p:?}: {fast} vs {slow}");
        }
    }

    #[test]
    fn tree_is_sparse_in_bounding_box() {
        let t = VascularTree::generate(&VascularTreeParams::default());
        let frac = t.fluid_fraction_estimate(20_000, 3);
        // Coronary-like sparsity: well under 5 %, above 0.01 %.
        assert!(frac < 0.05, "fraction {frac}");
        assert!(frac > 1e-4, "fraction {frac}");
    }

    #[test]
    fn inlet_is_inside_root_vessel() {
        let t = small_tree();
        let (ip, _) = t.inlet;
        // A point slightly along the root axis is inside the vessel.
        assert!(t.contains(ip + vec3(0.0, 0.0, 0.5)));
        assert_eq!(t.boundary_color(ip), VascularTree::INLET_COLOR);
    }

    #[test]
    fn mesh_extraction_produces_closed_colored_surface() {
        let t = VascularTree::generate(&VascularTreeParams {
            generations: 3,
            segments_per_branch: 2,
            ..Default::default()
        });
        let mesh = t.to_mesh(0.2);
        assert!(mesh.num_triangles() > 100);
        assert!(mesh.is_watertight());
        assert!(mesh.signed_volume() > 0.0);
        assert!(mesh.colors.contains(&VascularTree::INLET_COLOR));
        assert!(mesh.colors.contains(&VascularTree::OUTLET_COLOR));
    }
}
