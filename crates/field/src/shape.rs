//! Grid extents, ghost width and linear indexing.

use crate::region::Region;

/// The geometry of one block's grid: interior extents plus a ghost layer.
///
/// Interior cells have coordinates `0 .. n` per axis; ghost cells extend the
/// coordinate range to `-g .. n + g`. Storage is a dense row-major layout
/// with x fastest, i.e. the linear index advances by 1 in x, by the padded
/// x-extent in y, and by the padded xy-plane size in z — the layout assumed
/// by all streaming kernels.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Interior extent in x.
    pub nx: usize,
    /// Interior extent in y.
    pub ny: usize,
    /// Interior extent in z.
    pub nz: usize,
    /// Ghost-layer width (usually 1 for LBM).
    pub ghost: usize,
}

impl Shape {
    /// Creates a shape with the given interior extents and ghost width.
    pub fn new(nx: usize, ny: usize, nz: usize, ghost: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "extents must be positive");
        Shape { nx, ny, nz, ghost }
    }

    /// A cubic shape of edge length `n` with ghost width 1.
    pub fn cube(n: usize) -> Self {
        Self::new(n, n, n, 1)
    }

    /// Padded (allocated) extent in x, including ghosts.
    #[inline(always)]
    pub fn ax(&self) -> usize {
        self.nx + 2 * self.ghost
    }
    /// Padded extent in y.
    #[inline(always)]
    pub fn ay(&self) -> usize {
        self.ny + 2 * self.ghost
    }
    /// Padded extent in z.
    #[inline(always)]
    pub fn az(&self) -> usize {
        self.nz + 2 * self.ghost
    }

    /// Number of interior cells.
    #[inline(always)]
    pub fn interior_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Number of allocated cells including ghosts.
    #[inline(always)]
    pub fn alloc_cells(&self) -> usize {
        self.ax() * self.ay() * self.az()
    }

    /// Linear index stride of a step in y.
    #[inline(always)]
    pub fn stride_y(&self) -> usize {
        self.ax()
    }

    /// Linear index stride of a step in z.
    #[inline(always)]
    pub fn stride_z(&self) -> usize {
        self.ax() * self.ay()
    }

    /// Linear index of the cell at interior coordinates `(x, y, z)`;
    /// coordinates may lie in the ghost range `-g ..= n - 1 + g`.
    #[inline(always)]
    pub fn idx(&self, x: i32, y: i32, z: i32) -> usize {
        let g = self.ghost as i32;
        debug_assert!(x >= -g && (x as i64) < (self.nx + self.ghost) as i64, "x={x} out of range");
        debug_assert!(y >= -g && (y as i64) < (self.ny + self.ghost) as i64, "y={y} out of range");
        debug_assert!(z >= -g && (z as i64) < (self.nz + self.ghost) as i64, "z={z} out of range");
        let ax = (x + g) as usize;
        let ay = (y + g) as usize;
        let az = (z + g) as usize;
        (az * self.ay() + ay) * self.ax() + ax
    }

    /// Inverse of [`Shape::idx`]: interior coordinates of a linear index.
    pub fn coords(&self, idx: usize) -> (i32, i32, i32) {
        debug_assert!(idx < self.alloc_cells());
        let g = self.ghost as i32;
        let ax = idx % self.ax();
        let rest = idx / self.ax();
        let ay = rest % self.ay();
        let az = rest / self.ay();
        (ax as i32 - g, ay as i32 - g, az as i32 - g)
    }

    /// True if `(x, y, z)` is an interior (non-ghost) cell.
    #[inline(always)]
    pub fn is_interior(&self, x: i32, y: i32, z: i32) -> bool {
        x >= 0
            && (x as usize) < self.nx
            && y >= 0
            && (y as usize) < self.ny
            && z >= 0
            && (z as usize) < self.nz
    }

    /// The interior region (all non-ghost cells).
    pub fn interior(&self) -> Region {
        Region::new(0..self.nx as i32, 0..self.ny as i32, 0..self.nz as i32)
    }

    /// The full allocated region including ghosts.
    pub fn with_ghosts(&self) -> Region {
        let g = self.ghost as i32;
        Region::new(-g..self.nx as i32 + g, -g..self.ny as i32 + g, -g..self.nz as i32 + g)
    }

    /// The slab of interior cells adjacent to the face/edge/corner in
    /// direction `d` (each component in `{-1, 0, 1}`), `width` cells thick.
    /// This is the region *packed* when sending ghost data to the neighbor
    /// in direction `d`.
    pub fn boundary_slab(&self, d: [i8; 3], width: usize) -> Region {
        let w = width as i32;
        let pick = |dir: i8, n: usize| match dir {
            -1 => 0..w,
            0 => 0..n as i32,
            1 => n as i32 - w..n as i32,
            _ => unreachable!("direction component must be -1, 0 or 1"),
        };
        Region::new(pick(d[0], self.nx), pick(d[1], self.ny), pick(d[2], self.nz))
    }

    /// The interior *core*: interior cells whose pull stencil (reach
    /// `reach` cells per axis) never reads the ghost layer. These cells
    /// could be swept before ghost synchronization completes; no driver
    /// path splits a sweep this way (the split-cost probe and the
    /// region-partition tests do). May be empty for tiny blocks.
    pub fn interior_core(&self, reach: usize) -> Region {
        let r = reach as i32;
        let clip = |n: usize| {
            let lo = r.min(n as i32);
            lo..(n as i32 - r).max(lo)
        };
        Region::new(clip(self.nx), clip(self.ny), clip(self.nz))
    }

    /// The boundary *shell*: the interior cells not in
    /// [`Shape::interior_core`], i.e. those whose pull stencil reads the
    /// ghost layer, decomposed into at most six disjoint slabs (low/high
    /// per axis, each inner slab clipped against the outer ones). The
    /// union of the returned regions and the core covers the interior
    /// exactly once; empty slabs are omitted. Nothing is allocated. Like
    /// [`Shape::interior_core`], no driver path calls it.
    pub fn shell_regions(&self, reach: usize) -> impl Iterator<Item = Region> {
        let core = self.interior_core(reach);
        let (nx, ny, nz) = (self.nx as i32, self.ny as i32, self.nz as i32);
        [
            // z-low and z-high slabs span the full xy extent.
            Region::new(0..nx, 0..ny, 0..core.z.start),
            Region::new(0..nx, 0..ny, core.z.end..nz),
            // y slabs are clipped to the core z range.
            Region::new(0..nx, 0..core.y.start, core.z.clone()),
            Region::new(0..nx, core.y.end..ny, core.z.clone()),
            // x slabs are clipped to the core y and z ranges.
            Region::new(0..core.x.start, core.y.clone(), core.z.clone()),
            Region::new(core.x.end..nx, core.y.clone(), core.z.clone()),
        ]
        .into_iter()
        .filter(|r| !r.is_empty())
    }

    /// The slab of ghost cells lying beyond the face/edge/corner in
    /// direction `d`, `width` cells thick. This is the region *written*
    /// when receiving ghost data from the neighbor in direction `d`.
    pub fn ghost_slab(&self, d: [i8; 3], width: usize) -> Region {
        assert!(width <= self.ghost, "ghost slab wider than ghost layer");
        let w = width as i32;
        let pick = |dir: i8, n: usize| match dir {
            -1 => -w..0,
            0 => 0..n as i32,
            1 => n as i32..n as i32 + w,
            _ => unreachable!("direction component must be -1, 0 or 1"),
        };
        Region::new(pick(d[0], self.nx), pick(d[1], self.ny), pick(d[2], self.nz))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extents_and_counts() {
        let s = Shape::new(4, 5, 6, 1);
        assert_eq!(s.interior_cells(), 120);
        assert_eq!((s.ax(), s.ay(), s.az()), (6, 7, 8));
        assert_eq!(s.alloc_cells(), 336);
    }

    #[test]
    fn idx_coords_roundtrip() {
        let s = Shape::new(3, 4, 5, 1);
        for z in -1..=5 {
            for y in -1..=4 {
                for x in -1..=3 {
                    let i = s.idx(x, y, z);
                    assert!(i < s.alloc_cells());
                    assert_eq!(s.coords(i), (x, y, z));
                }
            }
        }
    }

    #[test]
    fn x_is_fastest_axis() {
        let s = Shape::cube(8);
        assert_eq!(s.idx(1, 0, 0), s.idx(0, 0, 0) + 1);
        assert_eq!(s.idx(0, 1, 0), s.idx(0, 0, 0) + s.stride_y());
        assert_eq!(s.idx(0, 0, 1), s.idx(0, 0, 0) + s.stride_z());
    }

    #[test]
    fn interior_predicate() {
        let s = Shape::cube(4);
        assert!(s.is_interior(0, 0, 0));
        assert!(s.is_interior(3, 3, 3));
        assert!(!s.is_interior(-1, 0, 0));
        assert!(!s.is_interior(0, 4, 0));
    }

    #[test]
    fn boundary_and_ghost_slabs_are_adjacent() {
        let s = Shape::new(4, 4, 4, 1);
        // East face (+x): boundary slab is x = 3, ghost slab is x = 4.
        let b = s.boundary_slab([1, 0, 0], 1);
        let g = s.ghost_slab([1, 0, 0], 1);
        assert_eq!(b.x, 3..4);
        assert_eq!(g.x, 4..5);
        assert_eq!(b.y, 0..4);
        assert_eq!(b.num_cells(), 16);
        assert_eq!(g.num_cells(), 16);
    }

    #[test]
    fn edge_and_corner_slabs() {
        let s = Shape::cube(4);
        // Edge in +x,+y.
        let e = s.boundary_slab([1, 1, 0], 1);
        assert_eq!(e.num_cells(), 4);
        // Corner in -x,-y,-z.
        let c = s.ghost_slab([-1, -1, -1], 1);
        assert_eq!(c.num_cells(), 1);
        assert_eq!(c.x, -1..0);
    }

    /// Core ∪ shell must cover every interior cell exactly once, for
    /// assorted extents including degenerate ones where the core is empty.
    #[test]
    fn core_and_shell_partition_interior() {
        for (nx, ny, nz) in [(8, 8, 8), (4, 5, 6), (2, 7, 3), (1, 1, 1), (2, 2, 2), (16, 3, 1)] {
            let s = Shape::new(nx, ny, nz, 1);
            let core = s.interior_core(1);
            let mut count = vec![0u32; s.interior_cells()];
            let lin = |x: i32, y: i32, z: i32| (z as usize * ny + y as usize) * nx + x as usize;
            for (x, y, z) in core.iter() {
                count[lin(x, y, z)] += 1;
            }
            for r in s.shell_regions(1) {
                for (x, y, z) in r.iter() {
                    count[lin(x, y, z)] += 1;
                }
            }
            assert!(
                count.iter().all(|&c| c == 1),
                "core+shell is not an exact partition for {nx}x{ny}x{nz}"
            );
            // Core cells never pull from the ghost layer.
            for (x, y, z) in core.iter() {
                for (dx, dy, dz) in
                    [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]
                {
                    assert!(s.is_interior(x + dx, y + dy, z + dz));
                }
            }
        }
    }

    #[test]
    fn tiny_block_has_empty_core_and_full_shell() {
        let s = Shape::new(2, 2, 2, 1);
        assert!(s.interior_core(1).is_empty());
        let shell_cells: usize = s.shell_regions(1).map(|r| r.num_cells()).sum();
        assert_eq!(shell_cells, s.interior_cells());
    }

    #[test]
    fn interior_region_covers_all_interior_cells() {
        let s = Shape::new(2, 3, 4, 1);
        let count = s.interior().iter().count();
        assert_eq!(count, s.interior_cells());
        assert!(s.interior().iter().all(|(x, y, z)| s.is_interior(x, y, z)));
    }
}
