//! Static load balancing of the block forest (paper §2.3): the one
//! [`Balancer`] every set-up path goes through, and the graph
//! partitioning behind its `Graph` variant.
//!
//! "We assign each block the number of its fluid cells as workload and
//! assign weights to the communication graph that are proportional to the
//! amount of data transferred between neighboring processes. [...] To
//! solve this multi-constrained optimization problem we use the METIS
//! graph partitioner." This module builds exactly that graph from a setup
//! forest and balances it with the in-tree multilevel partitioner.

use std::collections::HashMap;
use trillium_blockforest::{balance_with, morton_balance, skewed_balance, SetupForest};
use trillium_comm::pdfs_crossing;
use trillium_lattice::D3Q19;
use trillium_partition::{partition_kway, Graph};

/// How blocks are assigned to processes before a run. It lives here and
/// not in `trillium-blockforest` because the graph variant needs the
/// partitioner and the lattice's per-direction PDF counts, neither of
/// which the forest knows.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Balancer {
    /// Morton space-filling curve cut into equal workload quotas (fast,
    /// locality-preserving; the default).
    Morton,
    /// Deliberately skewed Morton cut: rank 0 gets this fraction of the
    /// total workload, the rest is split evenly. Exists to exercise the
    /// runtime rebalancer — a stand-in for estimator error on complex
    /// geometries, where static cell counts mispredict measured cost.
    Skewed(f64),
    /// Multilevel graph partitioning (the METIS path): balances fluid
    /// cells and minimizes the ghost volume crossing rank boundaries.
    Graph,
}

impl Balancer {
    /// Assigns every block of `forest` to one of `num_procs` ranks. The
    /// graph partitioner runs with a fixed seed, so one forest always
    /// gets one partition, in every process.
    pub fn apply(self, forest: &mut SetupForest, num_procs: u32) {
        match self {
            Balancer::Morton => morton_balance(forest, num_procs),
            Balancer::Skewed(fraction) => skewed_balance(forest, num_procs, fraction),
            Balancer::Graph => {
                graph_balance(forest, num_procs, 1);
            }
        }
    }
}

/// Builds the block communication graph: vertices are blocks weighted by
/// fluid cells; edges join adjacent blocks (uniform level) weighted by
/// the ghost data volume crossing the shared face/edge, in doubles per
/// time step.
pub fn block_graph(forest: &SetupForest) -> Graph {
    assert!(forest.is_uniform_level(), "block graph requires a uniform-level forest");
    let by_coords: HashMap<[i64; 3], usize> =
        forest.blocks.iter().enumerate().map(|(i, b)| (b.coords, i)).collect();
    let cells = forest.cells_per_block;

    let mut edges = Vec::new();
    for (i, b) in forest.blocks.iter().enumerate() {
        for d in trillium_blockforest::NEIGHBOR_DIRS {
            let nc =
                [b.coords[0] + d[0] as i64, b.coords[1] + d[1] as i64, b.coords[2] + d[2] as i64];
            let Some(&j) = by_coords.get(&nc) else { continue };
            if j <= i {
                continue; // count each undirected edge once
            }
            // Ghost message volume across this link: slab cells × PDFs.
            let qs = pdfs_crossing::<D3Q19>(d).len();
            if qs == 0 {
                continue;
            }
            let slab: usize = (0..3).map(|a| if d[a] == 0 { cells[a] } else { 1 }).product();
            edges.push((i as u32, j as u32, (slab * qs) as f64));
        }
    }
    let vwgt: Vec<f64> = forest.blocks.iter().map(|b| b.workload.max(1.0)).collect();
    Graph::from_edges(forest.blocks.len(), &edges, Some(vwgt))
}

/// The edge cut of the forest's current assignment: ghost volume between
/// blocks of different ranks, in doubles per step and direction. A run
/// sends 16 B per step for each (8 B, once each way).
pub fn edge_cut(forest: &SetupForest) -> f64 {
    let owners: Vec<u32> = forest.blocks.iter().map(|b| b.rank).collect();
    block_graph(forest).edge_cut(&owners)
}

/// Balances the forest onto `num_processes` ranks with the multilevel
/// graph partitioner. Returns the edge cut (communication volume between
/// different ranks, in doubles per step).
pub fn graph_balance(forest: &mut SetupForest, num_processes: u32, seed: u64) -> f64 {
    let g = block_graph(forest);
    let assign = partition_kway(&g, num_processes as usize, seed);
    let cut = g.edge_cut(&assign);
    balance_with(forest, num_processes, |i| assign[i]);
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_geometry::vec3::vec3;
    use trillium_geometry::Aabb;

    fn uniform_forest(n: usize) -> SetupForest {
        let e = n as f64;
        SetupForest::uniform(Aabb::new(vec3(0.0, 0.0, 0.0), vec3(e, e, e)), [n, n, n], [10, 10, 10])
    }

    #[test]
    fn graph_has_face_edge_weights() {
        let f = uniform_forest(2);
        let g = block_graph(&f);
        assert_eq!(g.num_vertices(), 8);
        // Each block: 3 face links (100 cells × 5 PDFs = 500) and 3 edge
        // links (10 cells × 1 PDF = 10); corner links carry nothing.
        let w: Vec<f64> = g.neighbors(0).map(|(_, w)| w).collect();
        assert_eq!(w.len(), 6);
        assert_eq!(w.iter().filter(|&&x| x == 500.0).count(), 3);
        assert_eq!(w.iter().filter(|&&x| x == 10.0).count(), 3);
    }

    #[test]
    fn graph_balance_balances_and_assigns() {
        let mut f = uniform_forest(4);
        let cut = graph_balance(&mut f, 8, 1);
        assert!(cut > 0.0);
        assert_eq!(f.num_processes, 8);
        assert!(f.imbalance() < 1.1, "imbalance {}", f.imbalance());
    }

    /// The graph partitioner must not lose badly to the Morton curve on
    /// communication volume — on a regular grid both should find
    /// compact chunks.
    #[test]
    fn graph_cut_is_competitive_with_morton() {
        let mut fg = uniform_forest(4);
        let cut_graph = graph_balance(&mut fg, 8, 1);

        let mut fm = uniform_forest(4);
        morton_balance(&mut fm, 8);
        let cut_morton = edge_cut(&fm);
        assert!(cut_graph <= 1.5 * cut_morton, "graph cut {cut_graph} vs morton cut {cut_morton}");
    }

    /// With unequal workloads (sparse geometry), the graph balancer beats
    /// plain one-block-per-rank assignment on balance.
    #[test]
    fn unequal_workloads_are_balanced() {
        let mut f = uniform_forest(4);
        for (i, b) in f.blocks.iter_mut().enumerate() {
            b.workload = 10.0 + ((i * 7919) % 990) as f64;
        }
        graph_balance(&mut f, 4, 2);
        assert!(f.imbalance() < 1.1, "imbalance {}", f.imbalance());
    }
}
