//! Fully distributed per-process forest views.
//!
//! "Each process only knows about its own blocks and blocks assigned to
//! neighboring processes. [...] the memory usage of a particular process
//! only depends on the number of blocks assigned to this process, and not
//! on the size of the entire simulation" (paper §2.2). A
//! [`DistributedForest`] is exactly that view: local blocks with their 26
//! per-direction links, plus nothing else.

use crate::id::BlockId;
use crate::setup::SetupForest;
use std::collections::HashMap;
use trillium_geometry::Aabb;

/// The 26 non-zero direction offsets of the 3-D Moore neighborhood, in a
/// fixed order shared with the communication layer.
pub const NEIGHBOR_DIRS: [[i8; 3]; 26] = {
    let mut dirs = [[0i8; 3]; 26];
    let mut n = 0;
    let mut z = -1i8;
    while z <= 1 {
        let mut y = -1i8;
        while y <= 1 {
            let mut x = -1i8;
            while x <= 1 {
                if !(x == 0 && y == 0 && z == 0) {
                    dirs[n] = [x, y, z];
                    n += 1;
                }
                x += 1;
            }
            y += 1;
        }
        z += 1;
    }
    dirs
};

/// Index of direction `d` in [`NEIGHBOR_DIRS`].
pub fn dir_index(d: [i8; 3]) -> usize {
    let lin = (d[2] + 1) as usize * 9 + (d[1] + 1) as usize * 3 + (d[0] + 1) as usize;
    // Directions after the center (index 13) shift down by one.
    assert!(lin != 13, "zero direction has no index");
    if lin < 13 {
        lin
    } else {
        lin - 1
    }
}

/// A link from a local block to its neighbor in one direction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BlockLink {
    /// No block there: the face/edge/corner lies on the domain border.
    Border,
    /// Neighbor block owned by the same process.
    Local(BlockId),
    /// Neighbor block owned by another process.
    Remote(BlockId, u32),
}

/// A block as known to its owning process.
#[derive(Clone, Debug)]
pub struct LocalBlock {
    /// Structured ID.
    pub id: BlockId,
    /// Physical box.
    pub aabb: Aabb,
    /// Integer grid coordinates at the block's level.
    pub coords: [i64; 3],
    /// Fluid-cell workload.
    pub workload: f64,
    /// Whether the block is completely covered by fluid.
    pub fully_inside: bool,
    /// Neighbor links in [`NEIGHBOR_DIRS`] order.
    pub links: [BlockLink; 26],
}

/// The per-process view of the forest.
#[derive(Clone, Debug)]
pub struct DistributedForest {
    /// This process's rank.
    pub rank: u32,
    /// Total number of processes.
    pub num_processes: u32,
    /// Lattice cells per block per axis.
    pub cells_per_block: [usize; 3],
    /// Blocks owned by this process, sorted by ID.
    pub blocks: Vec<LocalBlock>,
}

impl DistributedForest {
    /// Number of locally owned blocks.
    pub fn num_local_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// An upper bound on the amount of forest metadata this process holds,
    /// in "knowledge units" (own blocks + remote links). Used by tests to
    /// assert the O(local) memory property.
    pub fn knowledge_size(&self) -> usize {
        self.blocks.len()
            + self
                .blocks
                .iter()
                .flat_map(|b| b.links.iter())
                .filter(|l| matches!(l, BlockLink::Remote(..)))
                .count()
    }
}

/// Splits a balanced, uniform-level setup forest into one
/// [`DistributedForest`] per process.
///
/// Panics if the forest is not balanced or contains refined blocks
/// (neighbor detection on mixed-level forests is future work, as in the
/// paper).
pub fn distribute(forest: &SetupForest) -> Vec<DistributedForest> {
    assert!(forest.num_processes > 0, "forest must be balanced first");
    assert!(forest.is_uniform_level(), "distribution requires a uniform-level forest");

    // Index blocks by integer grid coordinates.
    let by_coords: HashMap<[i64; 3], usize> =
        forest.blocks.iter().enumerate().map(|(i, b)| (b.coords, i)).collect();

    let mut out: Vec<DistributedForest> = (0..forest.num_processes)
        .map(|rank| DistributedForest {
            rank,
            num_processes: forest.num_processes,
            cells_per_block: forest.cells_per_block,
            blocks: Vec::new(),
        })
        .collect();

    for b in &forest.blocks {
        let mut links = [BlockLink::Border; 26];
        for (i, d) in NEIGHBOR_DIRS.iter().enumerate() {
            let mut nc =
                [b.coords[0] + d[0] as i64, b.coords[1] + d[1] as i64, b.coords[2] + d[2] as i64];
            // Periodic axes wrap: the neighbor beyond the last root block
            // is the first one (per axis, so diagonals wrap independently).
            for a in 0..3 {
                if forest.periodic[a] {
                    nc[a] = nc[a].rem_euclid(forest.roots[a] as i64);
                }
            }
            if let Some(&ni) = by_coords.get(&nc) {
                let nb = &forest.blocks[ni];
                links[i] = if nb.rank == b.rank {
                    BlockLink::Local(nb.id)
                } else {
                    BlockLink::Remote(nb.id, nb.rank)
                };
            }
        }
        out[b.rank as usize].blocks.push(LocalBlock {
            id: b.id,
            aabb: b.aabb,
            coords: b.coords,
            workload: b.workload,
            fully_inside: b.fully_inside,
            links,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::morton_balance;
    use trillium_geometry::vec3::vec3;

    fn forest(n: usize, procs: u32) -> Vec<DistributedForest> {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(n as f64, n as f64, n as f64));
        let mut f = SetupForest::uniform(domain, [n, n, n], [8, 8, 8]);
        morton_balance(&mut f, procs);
        distribute(&f)
    }

    #[test]
    fn neighbor_dirs_table() {
        assert_eq!(NEIGHBOR_DIRS.len(), 26);
        assert_eq!(NEIGHBOR_DIRS[dir_index([1, 0, 0])], [1, 0, 0]);
        assert_eq!(NEIGHBOR_DIRS[dir_index([-1, -1, -1])], [-1, -1, -1]);
        assert_eq!(NEIGHBOR_DIRS[dir_index([0, 0, 1])], [0, 0, 1]);
        // Bijection.
        for (i, d) in NEIGHBOR_DIRS.iter().enumerate() {
            assert_eq!(dir_index(*d), i);
        }
    }

    #[test]
    fn every_block_distributed_once() {
        let views = forest(4, 8);
        let total: usize = views.iter().map(|v| v.num_local_blocks()).sum();
        assert_eq!(total, 64);
        // Interior block of the cube has no border links.
        let all_blocks: Vec<&LocalBlock> = views.iter().flat_map(|v| v.blocks.iter()).collect();
        let inner = all_blocks.iter().find(|b| b.coords == [1, 1, 1]).unwrap();
        assert!(inner.links.iter().all(|l| !matches!(l, BlockLink::Border)));
        // Corner block has exactly 7 links (3 faces + 3 edges + 1 corner).
        let corner = all_blocks.iter().find(|b| b.coords == [0, 0, 0]).unwrap();
        let present = corner.links.iter().filter(|l| !matches!(l, BlockLink::Border)).count();
        assert_eq!(present, 7);
    }

    #[test]
    fn links_are_symmetric() {
        let views = forest(3, 5);
        // Build a map id -> (rank, links).
        let mut map = HashMap::new();
        for v in &views {
            for b in &v.blocks {
                map.insert(b.id, (v.rank, b.coords, b.links));
            }
        }
        for v in &views {
            for b in &v.blocks {
                for (i, l) in b.links.iter().enumerate() {
                    let d = NEIGHBOR_DIRS[i];
                    if let BlockLink::Local(nid) | BlockLink::Remote(nid, _) = l {
                        let (_, _, nlinks) = map[nid];
                        let back = nlinks[dir_index([-d[0], -d[1], -d[2]])];
                        match back {
                            BlockLink::Local(x) | BlockLink::Remote(x, _) => assert_eq!(x, b.id),
                            BlockLink::Border => panic!("asymmetric link"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn remote_links_carry_correct_owner() {
        let views = forest(4, 4);
        let owner: HashMap<BlockId, u32> =
            views.iter().flat_map(|v| v.blocks.iter().map(move |b| (b.id, v.rank))).collect();
        for v in &views {
            for b in &v.blocks {
                for l in &b.links {
                    if let BlockLink::Remote(id, r) = l {
                        assert_eq!(owner[id], *r);
                        assert_ne!(*r, v.rank, "remote link to own rank");
                    }
                }
            }
        }
    }

    #[test]
    fn periodic_axes_wrap_links() {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(4.0, 2.0, 2.0));
        let mut f =
            SetupForest::uniform(domain, [4, 2, 2], [8, 8, 8]).with_periodic([true, true, false]);
        morton_balance(&mut f, 2);
        let views = distribute(&f);
        let all: Vec<&LocalBlock> = views.iter().flat_map(|v| v.blocks.iter()).collect();
        let at = |c: [i64; 3]| all.iter().find(|b| b.coords == c).unwrap();
        // −x from the first block wraps to the last block of the row.
        let b0 = at([0, 0, 0]);
        match b0.links[dir_index([-1, 0, 0])] {
            BlockLink::Local(id) | BlockLink::Remote(id, _) => assert_eq!(id, at([3, 0, 0]).id),
            BlockLink::Border => panic!("periodic face must not be a border"),
        }
        // Diagonal wrap across two periodic axes at once.
        match b0.links[dir_index([-1, -1, 0])] {
            BlockLink::Local(id) | BlockLink::Remote(id, _) => assert_eq!(id, at([3, 1, 0]).id),
            BlockLink::Border => panic!("periodic edge must not be a border"),
        }
        // The non-periodic z axis still has borders.
        assert!(matches!(b0.links[dir_index([0, 0, -1])], BlockLink::Border));
        // Wrapped links stay symmetric.
        let b3 = at([3, 0, 0]);
        match b3.links[dir_index([1, 0, 0])] {
            BlockLink::Local(id) | BlockLink::Remote(id, _) => assert_eq!(id, b0.id),
            BlockLink::Border => panic!("asymmetric periodic link"),
        }
    }

    /// The defining scalability property: a rank's metadata does not grow
    /// with the total number of processes when its local share is fixed.
    #[test]
    fn knowledge_is_independent_of_total_size() {
        // 1 block per process in both cases; compare a rank owning an
        // interior block.
        let small = forest(4, 64);
        let large = forest(8, 512);
        let interior_small = small
            .iter()
            .flat_map(|v| v.blocks.iter().map(move |b| (v, b)))
            .find(|(_, b)| b.coords == [1, 1, 1])
            .unwrap();
        let interior_large = large
            .iter()
            .flat_map(|v| v.blocks.iter().map(move |b| (v, b)))
            .find(|(_, b)| b.coords == [3, 3, 3])
            .unwrap();
        // Same knowledge despite 8x the machine size.
        assert_eq!(interior_small.0.knowledge_size(), interior_large.0.knowledge_size());
    }
}
