//! The global setup forest: construction, domain filtering, refinement.
//!
//! The setup phase (paper §2.2/§2.3) may hold the entire forest in memory —
//! its cost scales with the number of blocks, *not* with the number of
//! cells, which is what allows trillion-cell domains: the grid inside each
//! block is only materialized later, block by block, on the owning process.

use crate::id::BlockId;
use trillium_geometry::{classify_block, SignedDistance};
use trillium_geometry::{Aabb, Vec3};

/// One leaf block of the setup forest.
#[derive(Clone, Debug)]
pub struct SetupBlock {
    /// Structured block ID.
    pub id: BlockId,
    /// Physical bounding box of the block.
    pub aabb: Aabb,
    /// Integer grid coordinates at the block's level (unit = block edge at
    /// that level), used for neighbor detection on uniform forests.
    pub coords: [i64; 3],
    /// Workload estimate: number of fluid cells in the block.
    pub workload: f64,
    /// Assigned process rank (set by load balancing).
    pub rank: u32,
    /// Whether the block is completely inside the fluid domain.
    pub fully_inside: bool,
}

/// The global (setup-phase) forest of octrees.
#[derive(Clone, Debug)]
pub struct SetupForest {
    /// Physical box covered by the root grid.
    pub domain: Aabb,
    /// Number of root blocks per axis.
    pub roots: [usize; 3],
    /// Lattice cells per block per axis (same for every block; blocks at
    /// refinement level L cover the same cell count at 2^-L the spacing).
    pub cells_per_block: [usize; 3],
    /// Leaf blocks, sorted by ID.
    pub blocks: Vec<SetupBlock>,
    /// Number of processes blocks are balanced across (0 = not balanced).
    pub num_processes: u32,
    /// Per-axis periodicity: on a periodic axis, blocks at opposite ends
    /// of the root grid are neighbors (their links wrap around) and no
    /// domain border exists there. Scenario-level metadata — not part of
    /// the forest file format.
    pub periodic: [bool; 3],
}

impl SetupForest {
    /// Creates a uniform, unrefined forest: `roots[0] × roots[1] × roots[2]`
    /// blocks tiling `domain`, every block marked fully inside with a dense
    /// workload.
    pub fn uniform(domain: Aabb, roots: [usize; 3], cells_per_block: [usize; 3]) -> Self {
        assert!(roots.iter().all(|&r| r > 0));
        let cells: f64 = cells_per_block.iter().map(|&c| c as f64).product();
        let mut blocks = Vec::with_capacity(roots[0] * roots[1] * roots[2]);
        for k in 0..roots[2] {
            for j in 0..roots[1] {
                for i in 0..roots[0] {
                    let idx = (k * roots[1] + j) * roots[0] + i;
                    blocks.push(SetupBlock {
                        id: BlockId::root(idx as u64),
                        aabb: Self::root_aabb(&domain, roots, [i, j, k]),
                        coords: [i as i64, j as i64, k as i64],
                        workload: cells,
                        rank: 0,
                        fully_inside: true,
                    });
                }
            }
        }
        SetupForest {
            domain,
            roots,
            cells_per_block,
            blocks,
            num_processes: 0,
            periodic: [false; 3],
        }
    }

    /// Marks axes as periodic (see the `periodic` field). Each periodic
    /// axis needs at least two root blocks so that a block never becomes
    /// its own wrap-around neighbor.
    pub fn with_periodic(mut self, periodic: [bool; 3]) -> Self {
        for a in 0..3 {
            assert!(
                !periodic[a] || self.roots[a] >= 2,
                "periodic axis {a} needs >= 2 root blocks (got {})",
                self.roots[a]
            );
        }
        self.periodic = periodic;
        self
    }

    /// Creates a forest over the bounding box of `sdf` keeping only blocks
    /// that intersect the domain, with workloads set to the exact fluid
    /// cell count of each block. Uses a hierarchical descent over the root
    /// grid so that large empty regions cost O(1) distance queries — the
    /// setup never enumerates the full root grid.
    ///
    /// `dx` is the lattice spacing; root blocks have physical edge
    /// `cells_per_block · dx`.
    pub fn from_domain<S: SignedDistance + ?Sized>(
        sdf: &S,
        dx: f64,
        cells_per_block: [usize; 3],
    ) -> Self {
        Self::from_domain_inner(sdf, dx, cells_per_block, None)
    }

    /// Like [`SetupForest::from_domain`] but estimating per-block
    /// workloads from `samples³` probe points instead of testing every
    /// cell center — the fast path for very large forests (the scaling
    /// harness builds forests with hundreds of thousands of blocks).
    /// Workloads of partially covered blocks are estimates; fully inside /
    /// outside classification is unchanged.
    pub fn from_domain_sampled<S: SignedDistance + ?Sized>(
        sdf: &S,
        dx: f64,
        cells_per_block: [usize; 3],
        samples: usize,
    ) -> Self {
        assert!(samples >= 2);
        Self::from_domain_inner(sdf, dx, cells_per_block, Some(samples))
    }

    /// The candidate root grid covering the domain of `sdf` at resolution
    /// `dx`: the (slightly padded) physical box and the number of root
    /// blocks per axis. Deterministic, so every process of a distributed
    /// setup computes the same grid locally.
    pub fn candidate_grid<S: SignedDistance + ?Sized>(
        sdf: &S,
        dx: f64,
        cells_per_block: [usize; 3],
    ) -> (Aabb, [usize; 3]) {
        let bb = sdf.bounding_box();
        let edge = Vec3 {
            x: cells_per_block[0] as f64 * dx,
            y: cells_per_block[1] as f64 * dx,
            z: cells_per_block[2] as f64 * dx,
        };
        let ext = bb.extents();
        let roots = [
            (ext.x / edge.x).ceil().max(1.0) as usize,
            (ext.y / edge.y).ceil().max(1.0) as usize,
            (ext.z / edge.z).ceil().max(1.0) as usize,
        ];
        let domain = Aabb::new(
            bb.min,
            bb.min
                + Vec3 {
                    x: roots[0] as f64 * edge.x,
                    y: roots[1] as f64 * edge.y,
                    z: roots[2] as f64 * edge.z,
                },
        );
        (domain, roots)
    }

    /// Classifies one index sub-range of the candidate root grid against
    /// the domain, returning the intersecting blocks with workloads. This
    /// is the unit of work of the hybrid-parallel initialization
    /// (paper §2.3): ranges are scattered over processes, classified
    /// independently, and the results gathered. `samples` picks the grid
    /// each block's cell centres are counted on: the block's own cells
    /// (`None`, exact workloads) or `samples³` probes.
    #[allow(clippy::too_many_arguments)]
    pub fn classify_range<S: SignedDistance + ?Sized>(
        sdf: &S,
        domain: &Aabb,
        roots: [usize; 3],
        cells_per_block: [usize; 3],
        samples: Option<usize>,
        rx: [usize; 2],
        ry: [usize; 2],
        rz: [usize; 2],
    ) -> Vec<SetupBlock> {
        let grid = samples.map_or(cells_per_block, |s| [s; 3]);
        let mut out = Vec::new();
        Self::descend(sdf, domain, roots, cells_per_block, grid, rx, ry, rz, &mut out);
        out
    }

    fn from_domain_inner<S: SignedDistance + ?Sized>(
        sdf: &S,
        dx: f64,
        cells_per_block: [usize; 3],
        samples: Option<usize>,
    ) -> Self {
        let (domain, roots) = Self::candidate_grid(sdf, dx, cells_per_block);
        let blocks = Self::classify_range(
            sdf,
            &domain,
            roots,
            cells_per_block,
            samples,
            [0, roots[0]],
            [0, roots[1]],
            [0, roots[2]],
        );
        Self::from_blocks(domain, roots, cells_per_block, blocks)
    }

    /// An unbalanced forest of classified leaf blocks, given in any order
    /// (the serial descent's, or a gather's): sorted by ID, no process
    /// assigned, no periodic axis.
    pub fn from_blocks(
        domain: Aabb,
        roots: [usize; 3],
        cells_per_block: [usize; 3],
        mut blocks: Vec<SetupBlock>,
    ) -> Self {
        blocks.sort_by_key(|b| b.id);
        SetupForest {
            domain,
            roots,
            cells_per_block,
            blocks,
            num_processes: 0,
            periodic: [false; 3],
        }
    }

    /// Recursive descent over index ranges: prunes whole sub-grids whose
    /// bounding box is farther from the surface than its circumradius and
    /// entirely outside, and classifies each remaining block once on
    /// `grid`. A block of `n` fluid centres out of the grid's `N` keeps
    /// the workload `n / N` of its dense cell count (exactly `n` when
    /// `grid` is the block's own cells); a full one is `fully_inside`, one
    /// whose workload rounds to zero is dropped.
    #[allow(clippy::too_many_arguments)]
    fn descend<S: SignedDistance + ?Sized>(
        sdf: &S,
        domain: &Aabb,
        roots: [usize; 3],
        cells_per_block: [usize; 3],
        grid: [usize; 3],
        rx: [usize; 2],
        ry: [usize; 2],
        rz: [usize; 2],
        out: &mut Vec<SetupBlock>,
    ) {
        let n = [rx[1] - rx[0], ry[1] - ry[0], rz[1] - rz[0]];
        if n.contains(&0) {
            return;
        }
        if n == [1, 1, 1] {
            let ijk = [rx[0], ry[0], rz[0]];
            let aabb = Self::root_aabb(domain, roots, ijk);
            let fluid = classify_block(sdf, &aabb, grid);
            let total: usize = grid.iter().product();
            let dense: f64 = cells_per_block.iter().map(|&c| c as f64).product();
            let fully_inside = fluid == total;
            let workload =
                if fully_inside { dense } else { (fluid as f64 / total as f64 * dense).round() };
            if workload > 0.0 {
                out.push(SetupBlock {
                    id: BlockId::root(((ijk[2] * roots[1] + ijk[1]) * roots[0] + ijk[0]) as u64),
                    aabb,
                    coords: ijk.map(|c| c as i64),
                    workload,
                    rank: 0,
                    fully_inside,
                });
            }
            return;
        }
        // Bounding box of this index range.
        let lo = Self::root_aabb(domain, roots, [rx[0], ry[0], rz[0]]).min;
        let hi = Self::root_aabb(domain, roots, [rx[1] - 1, ry[1] - 1, rz[1] - 1]).max;
        let range_bb = Aabb::new(lo, hi);
        if sdf.signed_distance(range_bb.center()) > range_bb.circumradius() {
            return; // Entire range outside the domain.
        }
        // Split the longest axis.
        let split = |r: [usize; 2]| {
            let mid = (r[0] + r[1]) / 2;
            ([r[0], mid], [mid, r[1]])
        };
        if n[0] >= n[1] && n[0] >= n[2] {
            let (a, b) = split(rx);
            Self::descend(sdf, domain, roots, cells_per_block, grid, a, ry, rz, out);
            Self::descend(sdf, domain, roots, cells_per_block, grid, b, ry, rz, out);
        } else if n[1] >= n[2] {
            let (a, b) = split(ry);
            Self::descend(sdf, domain, roots, cells_per_block, grid, rx, a, rz, out);
            Self::descend(sdf, domain, roots, cells_per_block, grid, rx, b, rz, out);
        } else {
            let (a, b) = split(rz);
            Self::descend(sdf, domain, roots, cells_per_block, grid, rx, ry, a, out);
            Self::descend(sdf, domain, roots, cells_per_block, grid, rx, ry, b, out);
        }
    }

    /// Reconstructs a block purely from its ID (plus the forest geometry):
    /// root index → root cell, then the octant path. Shared by the file
    /// loader and by distributed setup, which exchange only
    /// `(id, workload, rank)` triples.
    pub fn block_from_id(
        domain: &Aabb,
        roots: [usize; 3],
        cells_per_block: [usize; 3],
        id: BlockId,
        workload: f64,
        rank: u32,
    ) -> SetupBlock {
        let r = id.root_index() as usize;
        let ijk = [r % roots[0], (r / roots[0]) % roots[1], r / (roots[0] * roots[1])];
        let (mut bb, mut coords) = (Self::root_aabb(domain, roots, ijk), ijk.map(|c| c as i64));
        for l in 0..id.level() {
            (bb, coords) = octant(&bb, coords, id.octant_at(l));
        }
        let dense: f64 = cells_per_block.iter().map(|&c| c as f64).product();
        SetupBlock { id, aabb: bb, coords, workload, rank, fully_inside: workload >= dense }
    }

    /// Physical box of root block `(i, j, k)`.
    fn root_aabb(domain: &Aabb, roots: [usize; 3], ijk: [usize; 3]) -> Aabb {
        let e = domain.extents();
        let step =
            Vec3 { x: e.x / roots[0] as f64, y: e.y / roots[1] as f64, z: e.z / roots[2] as f64 };
        let min = domain.min
            + Vec3 {
                x: ijk[0] as f64 * step.x,
                y: ijk[1] as f64 * step.y,
                z: ijk[2] as f64 * step.z,
            };
        Aabb::new(min, min + step)
    }

    /// Number of leaf blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total workload (fluid cells) over all blocks.
    pub fn total_workload(&self) -> f64 {
        self.blocks.iter().map(|b| b.workload).sum()
    }

    /// True if every block is at refinement level 0 (regular grid), the
    /// configuration used for all simulations in the paper.
    pub fn is_uniform_level(&self) -> bool {
        self.blocks.iter().all(|b| b.id.level() == 0)
    }

    /// Splits every block matched by `pred` into its eight children
    /// (workload split evenly, coordinates doubled). The data structure
    /// supports mixed-level forests; the LBM driver requires uniform
    /// levels, mirroring the paper ("extending our parallel LBM
    /// implementation to support grid refinement is future work").
    pub fn refine_where<F: FnMut(&SetupBlock) -> bool>(&mut self, mut pred: F) {
        let mut next = Vec::with_capacity(self.blocks.len());
        for b in self.blocks.drain(..) {
            if !pred(&b) {
                next.push(b);
                continue;
            }
            for oct in 0..8u8 {
                let (aabb, coords) = octant(&b.aabb, b.coords, oct);
                next.push(SetupBlock {
                    id: b.id.child(oct),
                    aabb,
                    coords,
                    workload: b.workload / 8.0,
                    rank: b.rank,
                    fully_inside: b.fully_inside,
                });
            }
        }
        next.sort_by_key(|b| b.id);
        self.blocks = next;
    }

    /// Per-rank total workloads (length `num_processes`).
    pub fn rank_workloads(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.num_processes as usize];
        for b in &self.blocks {
            w[b.rank as usize] += b.workload;
        }
        w
    }

    /// Load imbalance: max over mean of per-rank workloads (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let w = self.rank_workloads();
        let max = w.iter().cloned().fold(0.0, f64::max);
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Octant `oct` of a block (bit `a` set: the upper half along axis `a`):
/// its box and its integer coordinates one level down.
fn octant(bb: &Aabb, coords: [i64; 3], oct: u8) -> (Aabb, [i64; 3]) {
    let (lo, mid, hi) = (bb.min.to_array(), bb.center().to_array(), bb.max.to_array());
    let upper = |a: usize| (oct >> a) & 1 == 1;
    let min = std::array::from_fn(|a| if upper(a) { mid[a] } else { lo[a] });
    let max = std::array::from_fn(|a| if upper(a) { hi[a] } else { mid[a] });
    let coords = std::array::from_fn(|a| 2 * coords[a] + upper(a) as i64);
    (Aabb::new(Vec3::from_array(min), Vec3::from_array(max)), coords)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_geometry::sdf::AnalyticSdf;
    use trillium_geometry::vec3::vec3;

    #[test]
    fn uniform_forest_tiles_domain() {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(4.0, 2.0, 2.0));
        let f = SetupForest::uniform(domain, [4, 2, 2], [10, 10, 10]);
        assert_eq!(f.num_blocks(), 16);
        assert!(f.is_uniform_level());
        // Volumes add up and boxes are disjoint tiles.
        let vol: f64 = f.blocks.iter().map(|b| b.aabb.volume()).sum();
        assert!((vol - domain.volume()).abs() < 1e-12);
        assert_eq!(f.total_workload(), 16.0 * 1000.0);
    }

    #[test]
    fn sphere_forest_keeps_only_intersecting_blocks() {
        let s = AnalyticSdf::Sphere { center: vec3(0.0, 0.0, 0.0), radius: 1.0 };
        let f = SetupForest::from_domain(&s, 0.05, [8, 8, 8]);
        // Root grid over [-1,1]³ with block edge 0.4: 5×5×5 candidates.
        assert_eq!(f.roots, [5, 5, 5]);
        assert!(f.num_blocks() > 0);
        assert!(f.num_blocks() < 125, "corner blocks must be dropped");
        // Every kept block must actually contain fluid.
        assert!(f.blocks.iter().all(|b| b.workload > 0.0));
        // Workload equals the sphere volume in cells, approximately.
        let cells = f.total_workload();
        let expect = 4.0 / 3.0 * std::f64::consts::PI / (0.05f64.powi(3));
        assert!((cells - expect).abs() / expect < 0.05, "{cells} vs {expect}");
    }

    #[test]
    fn hierarchical_descent_matches_exhaustive() {
        let s =
            AnalyticSdf::Capsule { a: vec3(0.0, 0.0, 0.0), b: vec3(3.0, 1.0, 0.5), radius: 0.3 };
        let f = SetupForest::from_domain(&s, 0.04, [6, 6, 6]);
        // Exhaustively enumerate the root grid and compare the kept set.
        let mut expect = Vec::new();
        for k in 0..f.roots[2] {
            for j in 0..f.roots[1] {
                for i in 0..f.roots[0] {
                    let bb = SetupForest::root_aabb(&f.domain, f.roots, [i, j, k]);
                    let n = trillium_geometry::voxelize::block_fluid_cells(&s, &bb, [6, 6, 6]);
                    if n > 0 {
                        expect.push(((i, j, k), n));
                    }
                }
            }
        }
        assert_eq!(f.num_blocks(), expect.len());
        for (b, (ijk, n)) in f.blocks.iter().zip(&expect) {
            assert_eq!((b.coords[0] as usize, b.coords[1] as usize, b.coords[2] as usize), *ijk);
            assert_eq!(b.workload, *n as f64);
        }
    }

    /// The FNV-1a fold of `core::checkpoint` over, per block in forest
    /// order, the little-endian bytes of the packed ID, the workload bits,
    /// the coverage flag and the six box coordinates' bits.
    fn digest(f: &SetupForest) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in &f.blocks {
            let words = [b.id.pack(), b.workload.to_bits(), b.fully_inside as u64];
            let corners = [b.aabb.min, b.aabb.max].map(|v| v.to_array().map(f64::to_bits));
            for w in words.into_iter().chain(corners.into_iter().flatten()) {
                for byte in w.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3);
                }
            }
        }
        h
    }

    /// Exact and sampled forests, bit for bit as the classifier that
    /// counted every partial block twice built them (digests printed by
    /// that code): one count per block changed no ID, box, workload or
    /// coverage flag.
    #[test]
    fn forests_are_pinned() {
        use trillium_geometry::{VascularTree, VascularTreeParams};
        let capsule =
            AnalyticSdf::Capsule { a: vec3(0.0, 0.0, 0.0), b: vec3(3.0, 1.0, 0.5), radius: 0.3 };
        let tree = VascularTree::generate(&VascularTreeParams {
            generations: 4,
            segments_per_branch: 2,
            ..Default::default()
        });
        let forests = [
            SetupForest::from_domain(&capsule, 0.04, [6, 6, 6]),
            SetupForest::from_domain(&tree, 0.16, [5, 5, 5]),
            SetupForest::from_domain_sampled(&tree, 0.16, [5, 5, 5], 3),
            SetupForest::from_domain_sampled(&tree, 0.16, [5, 5, 5], 4),
        ];
        let got = forests.each_ref().map(|f| (f.num_blocks(), digest(f)));
        assert_eq!(
            got,
            [
                (167, 0x3208_0a38_cea3_550f),
                (581, 0x9f2b_8654_19af_8b6f),
                (505, 0x4543_a2a1_cde7_97e0),
                (554, 0xe1f2_1ac5_b045_4930),
            ]
        );
        // The tree forests hold both kinds of block.
        assert!(forests[1..].iter().all(|f| f.blocks.iter().any(|b| b.fully_inside)));
        assert!(forests.iter().all(|f| f.blocks.iter().any(|b| !b.fully_inside)));
    }

    /// The domain behind a counter of distance queries.
    struct Counting<S> {
        inner: S,
        queries: std::sync::atomic::AtomicUsize,
    }

    impl<S: SignedDistance> Counting<S> {
        fn new(inner: S) -> Self {
            Counting { inner, queries: Default::default() }
        }
        /// Queries made since the last call.
        fn take(&self) -> usize {
            self.queries.swap(0, std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl<S: SignedDistance> SignedDistance for Counting<S> {
        fn signed_distance(&self, p: Vec3) -> f64 {
            self.queries.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.signed_distance(p)
        }
        fn bounding_box(&self) -> Aabb {
            self.inner.bounding_box()
        }
    }

    /// A block is classified once: a block its circumsphere settles costs
    /// one distance query, a carved one the descent's queries on the grid
    /// it is counted on — the boxes the surface passes near, never every
    /// cell, and never a second count.
    #[test]
    fn each_block_costs_one_classification() {
        let s = Counting::new(AnalyticSdf::Sphere { center: vec3(0.0, 0.0, 0.0), radius: 1.0 });
        let domain = Aabb::new(vec3(-2.0, -2.0, -2.0), vec3(2.0, 2.0, 2.0));
        let block = |ijk: [usize; 3], samples: Option<usize>| {
            let r = ijk.map(|c| [c, c + 1]);
            SetupForest::classify_range(&s, &domain, [10; 3], [6; 3], samples, r[0], r[1], r[2])
        };
        // Corner block: outside by its circumsphere.
        assert!(block([0, 0, 0], None).is_empty());
        assert_eq!(s.take(), 1);
        // Centre block: inside by its circumsphere.
        assert!(block([5, 5, 5], None)[0].fully_inside);
        assert_eq!(s.take(), 1);
        // A block the surface cuts, counted on its cells and on 3³ probes:
        // 125 queries for 216 cells, 19 for 27 probes (1 + 216 and 1 + 27
        // cell by cell).
        let cut = block([7, 5, 5], None);
        assert!(!cut[0].fully_inside && cut[0].workload > 0.0);
        assert_eq!(s.take(), 125);
        assert_eq!(block([7, 5, 5], Some(3)).len(), 1);
        assert_eq!(s.take(), 19);
    }

    /// Set-up's work on the benchmark's tree (5 generations, `dx` from the
    /// workload's volume rule, 16³ blocks) in distance queries: the forest
    /// costs 135 833 of them (1 332 599 when every carved block tested each
    /// of its cells), voxelizing its first block on the 18³ ghost-inclusive
    /// grid 503 (5 832 cell by cell).
    #[test]
    fn benchmark_tree_setup_queries_are_pinned() {
        use trillium_field::Shape;
        use trillium_geometry::{voxelize_block, VascularTree, VascularTreeParams, VoxelizeConfig};
        let tree = VascularTree::generate(&VascularTreeParams {
            generations: 5,
            root_radius: 1.2,
            root_length: 7.0,
            ..Default::default()
        });
        let fraction = tree.fluid_fraction_estimate(50_000, 7);
        let dx = (fraction * tree.bounding_box().volume() / 160_000.0).cbrt();
        let s = Counting::new(tree);
        let f = SetupForest::from_domain(&s, dx, [16; 3]);
        assert_eq!((f.num_blocks(), s.take()), (244, 135_833));
        voxelize_block(&s, f.blocks[0].aabb.min, dx, Shape::cube(16), &VoxelizeConfig::default());
        assert_eq!(s.take(), 503);
    }

    /// A sampled block whose probes see fluid, but too little for one
    /// cell of workload, is dropped.
    #[test]
    fn sampled_block_rounding_to_zero_is_dropped() {
        // One of the 4³ probes of the unit block, at (1/8, 1/8, 1/8), is
        // inside; none of the centres of its 2³ cells are.
        let s = AnalyticSdf::Sphere { center: vec3(0.125, 0.125, 0.125), radius: 0.05 };
        let unit = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(1.0, 1.0, 1.0));
        assert_eq!(classify_block(&s, &unit, [4; 3]), 1);
        let one = [0, 1];
        let kept = |samples| {
            SetupForest::classify_range(&s, &unit, [1; 3], [2; 3], samples, one, one, one)
        };
        assert!(kept(None).is_empty(), "no cell centre is fluid");
        assert!(kept(Some(4)).is_empty(), "1/64 of 8 cells rounds to 0");
    }

    #[test]
    fn refinement_replaces_block_with_eight_children() {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(2.0, 2.0, 2.0));
        let mut f = SetupForest::uniform(domain, [2, 2, 2], [8, 8, 8]);
        let target = f.blocks[0].id;
        f.refine_where(|b| b.id == target);
        assert_eq!(f.num_blocks(), 7 + 8);
        assert!(!f.is_uniform_level());
        // Children tile the parent volume.
        let kids: Vec<_> = f.blocks.iter().filter(|b| b.id.parent() == Some(target)).collect();
        assert_eq!(kids.len(), 8);
        let vol: f64 = kids.iter().map(|b| b.aabb.volume()).sum();
        assert!((vol - 1.0).abs() < 1e-12);
        // Workload conserved.
        assert!((f.total_workload() - 8.0 * 512.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_metric() {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(4.0, 1.0, 1.0));
        let mut f = SetupForest::uniform(domain, [4, 1, 1], [4, 4, 4]);
        f.num_processes = 2;
        f.blocks[0].rank = 0;
        f.blocks[1].rank = 0;
        f.blocks[2].rank = 1;
        f.blocks[3].rank = 1;
        assert!((f.imbalance() - 1.0).abs() < 1e-12);
        f.blocks[2].rank = 0;
        assert!((f.imbalance() - 1.5).abs() < 1e-12);
    }
}
