#![warn(missing_docs)]
//! Multilevel k-way graph partitioning — the METIS substitute.
//!
//! The paper (§2.3) balances blocks onto processes by partitioning the
//! block graph with METIS: vertex weights are per-block fluid-cell
//! workloads, edge weights are proportional to the data volume
//! communicated between neighboring blocks, and the partitioner must keep
//! per-part workloads balanced while minimizing the edge cut.
//!
//! This crate implements the same algorithm family METIS uses
//! (Karypis & Kumar): a *multilevel* scheme with
//!
//! 1. **coarsening** by heavy-edge matching ([`coarsen`]),
//! 2. an **initial partition** of the coarsest graph by greedy graph
//!    growing ([`initial`]),
//! 3. **uncoarsening** with Fiduccia–Mattheyses-style boundary refinement
//!    at every level ([`refine`]).
//!
//! The entry point is [`partition_kway`].

pub mod coarsen;
pub mod graph;
pub mod initial;
pub mod refine;

pub use graph::Graph;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Allowed imbalance: max part weight ≤ `TOLERANCE ×` average (5 %
/// slack, METIS's default ballpark).
const TOLERANCE: f64 = 1.05;
/// Refinement passes per uncoarsening level.
const REFINE_PASSES: usize = 4;
/// Coarsening stops once the graph has at most `max(COARSE_FACTOR · k,
/// 64)` vertices.
const COARSE_FACTOR: usize = 16;

/// Partitions `graph` into `k` parts, minimizing edge cut subject to the
/// balance tolerance. `seed` drives matching and seed-vertex tie
/// breaking. Returns the part index of each vertex.
pub fn partition_kway(graph: &Graph, k: usize, seed: u64) -> Vec<u32> {
    assert!(k >= 1);
    if k == 1 {
        return vec![0; graph.num_vertices()];
    }
    if graph.num_vertices() <= k {
        // Trivial: one vertex per part (round robin by weight order).
        let mut order: Vec<usize> = (0..graph.num_vertices()).collect();
        order.sort_by(|&a, &b| graph.vwgt[b].partial_cmp(&graph.vwgt[a]).unwrap());
        let mut assign = vec![0u32; graph.num_vertices()];
        for (slot, &v) in order.iter().enumerate() {
            assign[v] = (slot % k) as u32;
        }
        return assign;
    }

    let mut rng = StdRng::seed_from_u64(seed);

    // ---- coarsening phase --------------------------------------------
    let coarse_target = (COARSE_FACTOR * k).max(64);
    let mut levels: Vec<(Graph, Vec<usize>)> = Vec::new(); // (finer graph, map fine->coarse)
    let mut current = graph.clone();
    while current.num_vertices() > coarse_target {
        let (coarser, map) = coarsen::heavy_edge_coarsen(&current, &mut rng);
        // Diminishing returns: stop if coarsening stalls.
        if coarser.num_vertices() as f64 > 0.95 * current.num_vertices() as f64 {
            break;
        }
        levels.push((current, map));
        current = coarser;
    }

    // ---- initial partition -------------------------------------------
    let mut assign = initial::greedy_growing(&current, k, TOLERANCE, &mut rng);
    refine::fm_refine(&current, &mut assign, k, TOLERANCE, REFINE_PASSES);

    // ---- uncoarsening + refinement ------------------------------------
    while let Some((finer, map)) = levels.pop() {
        let mut fine_assign = vec![0u32; finer.num_vertices()];
        for (v, &c) in map.iter().enumerate() {
            fine_assign[v] = assign[c];
        }
        refine::fm_refine(&finer, &mut fine_assign, k, TOLERANCE, REFINE_PASSES);
        assign = fine_assign;
    }
    assign
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// A 3-D grid graph with uniform weights.
    fn grid_graph(nx: usize, ny: usize, nz: usize) -> Graph {
        let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
        let mut edges = Vec::new();
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    if x + 1 < nx {
                        edges.push((idx(x, y, z) as u32, idx(x + 1, y, z) as u32, 1.0));
                    }
                    if y + 1 < ny {
                        edges.push((idx(x, y, z) as u32, idx(x, y + 1, z) as u32, 1.0));
                    }
                    if z + 1 < nz {
                        edges.push((idx(x, y, z) as u32, idx(x, y, z + 1) as u32, 1.0));
                    }
                }
            }
        }
        Graph::from_edges(nx * ny * nz, &edges, None)
    }

    #[test]
    fn bisection_of_a_bar_cuts_near_the_middle() {
        // 16×4×4 bar: the optimal bisection cuts a 4×4 cross-section (16
        // edges); accept anything reasonably close.
        let g = grid_graph(16, 4, 4);
        let assign = partition_kway(&g, 2, 1);
        let cut = g.edge_cut(&assign);
        assert!(cut <= 32.0, "cut {cut} too large (optimal 16)");
        let bal = g.balance(&assign, 2);
        assert!(bal <= 1.06, "imbalance {bal}");
    }

    #[test]
    fn kway_partition_is_balanced() {
        let g = grid_graph(8, 8, 8);
        for k in [2, 4, 8, 16] {
            let assign = partition_kway(&g, k, 1);
            let bal = g.balance(&assign, k);
            assert!(bal <= 1.10, "k={k}: imbalance {bal}");
            // All parts non-empty.
            let mut seen = vec![false; k];
            for &a in &assign {
                seen[a as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "k={k}: empty part");
        }
    }

    #[test]
    fn beats_random_assignment_on_cut() {
        use rand::Rng;
        let g = grid_graph(10, 10, 5);
        let k = 8;
        let assign = partition_kway(&g, k, 1);
        let cut = g.edge_cut(&assign);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let random: Vec<u32> = (0..g.num_vertices()).map(|_| rng.gen_range(0..k as u32)).collect();
        let rcut = g.edge_cut(&random);
        assert!(cut < 0.5 * rcut, "cut {cut} not much better than random {rcut}");
    }

    #[test]
    fn respects_vertex_weights() {
        // Two heavy vertices and many light ones: heavies must not share a
        // part when k = 2 and weights dominate.
        let mut edges = Vec::new();
        for i in 0..30u32 {
            edges.push((i, (i + 1) % 30, 1.0));
        }
        let mut vwgt = vec![1.0; 30];
        vwgt[0] = 50.0;
        vwgt[15] = 50.0;
        let g = Graph::from_edges(30, &edges, Some(vwgt));
        let assign = partition_kway(&g, 2, 1);
        assert_ne!(assign[0], assign[15], "heavy vertices in the same part");
        assert!(g.balance(&assign, 2) < 1.2);
    }

    #[test]
    fn trivial_cases() {
        let g = grid_graph(4, 4, 1);
        let one = partition_kway(&g, 1, 1);
        assert!(one.iter().all(|&a| a == 0));
        // More parts than vertices.
        let tiny = grid_graph(2, 1, 1);
        let assign = partition_kway(&tiny, 8, 1);
        assert_eq!(assign.len(), 2);
        assert_ne!(assign[0], assign[1]);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid_graph(12, 6, 3);
        let a = partition_kway(&g, 4, 1);
        let b = partition_kway(&g, 4, 1);
        assert_eq!(a, b);
    }
}
