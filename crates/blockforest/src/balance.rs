//! Placement of blocks onto processes along the Morton curve.
//!
//! The paper balances one way (§2.3): order the blocks along a
//! space-filling curve and cut the curve so that every process receives
//! its share of the workload. This module holds that mechanism once —
//! [`curve_order`] and [`cut_curve`] — and every placement in the
//! workspace is a caller that differs only in the quotas it passes:
//!
//! * [`morton_balance`] — equal shares of the fluid-cell workload (the
//!   static set-up balancer);
//! * [`skewed_balance`] — `[f, (1-f)/(n-1), …]`, the deliberately
//!   unbalanced fixture the run-time rebalancer is tested against;
//! * `trillium_rebalance::plan_rebalance`'s curve fallback — equal shares
//!   of the *measured* cost;
//! * `trillium_rebalance::hetero::plan_rebalance_hetero` — shares
//!   proportional to each rank's speed.
//!
//! Graph partitioning (METIS in the paper) lives in the `partition`
//! crate and is plugged in through [`balance_with`]; it additionally
//! minimizes the communication volume between processes.

use crate::setup::SetupForest;

/// Interleaves the lower 42 bits of three coordinates into a Morton code
/// (x in bit 0, y in bit 1, z in bit 2 of each triple). Setup-phase only,
/// so the straightforward bit loop is plenty fast.
fn morton_code(x: u64, y: u64, z: u64) -> u128 {
    let mut out = 0u128;
    for i in 0..42u32 {
        out |= (((x >> i) & 1) as u128) << (3 * i)
            | (((y >> i) & 1) as u128) << (3 * i + 1)
            | (((z >> i) & 1) as u128) << (3 * i + 2);
    }
    out
}

/// The indices `0..len` in Morton-curve order. `block(i)` returns item
/// `i`'s grid coordinates on its own refinement level, that level, and a
/// unique id that breaks ties (a refined block and its first descendant
/// share a curve position). Coordinates are scaled to the finest level
/// present so curve positions of mixed-level forests nest.
pub fn curve_order<I: Ord>(len: usize, block: impl Fn(usize) -> ([u64; 3], u8, I)) -> Vec<usize> {
    let max_level = (0..len).map(|i| block(i).1).max().unwrap_or(0);
    let mut order: Vec<usize> = (0..len).collect();
    // Cached: the key is a 42-round bit interleave, far too dear to
    // recompute at every comparison.
    order.sort_by_cached_key(|&i| {
        let (c, level, id) = block(i);
        let shift = (max_level - level) as u64;
        (morton_code(c[0] << shift, c[1] << shift, c[2] << shift), id)
    });
    order
}

/// What the quotas handed to [`cut_curve`] measure, one entry per rank
/// (the last rank's is never read: it takes whatever is left).
#[derive(Clone, Copy, Debug)]
pub enum Quotas<'a> {
    /// `ends[r]` is the curve position — workload summed from the start
    /// of the curve — where rank `r`'s chunk ideally ends. A chunk that
    /// runs over or under is made up for by the next one.
    Ends(&'a [f64]),
    /// `sizes[r]` is the workload of rank `r`'s chunk, measured from
    /// where rank `r - 1`'s chunk actually ended.
    Sizes(&'a [f64]),
}

/// Cuts a curve into one contiguous chunk per rank and returns the rank
/// of every item (indexed like `weight`, not like `order`). The rank
/// advances when the *midpoint* of an item crosses the current rank's
/// quota, so an item straddling a boundary goes to the side that holds
/// the larger part of it; ranks may stay empty when there are fewer
/// items than ranks.
pub fn cut_curve(order: &[usize], weight: impl Fn(usize) -> f64, quotas: Quotas<'_>) -> Vec<u32> {
    let (quota, restart) = match quotas {
        Quotas::Ends(ends) => (ends, false),
        Quotas::Sizes(sizes) => (sizes, true),
    };
    let mut ranks = vec![0u32; order.len()];
    let mut acc = 0.0;
    let mut rank = 0usize;
    for &i in order {
        let w = weight(i);
        while rank + 1 < quota.len() && acc + 0.5 * w >= quota[rank] {
            rank += 1;
            if restart {
                acc = 0.0;
            }
        }
        ranks[i] = rank as u32;
        acc += w;
    }
    ranks
}

/// Assigns blocks to `num_processes` ranks by cutting the Morton curve into
/// chunks of approximately equal workload. Every rank receives a contiguous
/// curve segment, so blocks on one process neighbor each other spatially
/// ("blocks on one process are ideally neighboring each other to exploit
/// fast local communication", §2.3).
pub fn morton_balance(forest: &mut SetupForest, num_processes: u32) {
    assert!(num_processes > 0);
    let blocks = &forest.blocks;
    let order = curve_order(blocks.len(), |i| {
        (blocks[i].coords.map(|c| c as u64), blocks[i].id.level(), blocks[i].id)
    });
    let per_rank = forest.total_workload() / num_processes as f64;
    let ends: Vec<f64> = (0..num_processes).map(|r| per_rank * (r + 1) as f64).collect();
    let ranks = cut_curve(&order, |i| blocks[i].workload, Quotas::Ends(&ends));
    balance_with(forest, num_processes, |i| ranks[i]);
}

/// Deliberately *unbalances* the Morton assignment: rank 0 receives the
/// first `fraction` of the total workload along the curve and the
/// remaining ranks split the rest evenly. This is a test/ablation
/// fixture for the runtime rebalancer — it reproduces the skew that
/// develops in practice when per-cell cost drifts away from the static
/// cell-count estimate, without needing a cost model to do so.
pub fn skewed_balance(forest: &mut SetupForest, num_processes: u32, fraction: f64) {
    assert!(num_processes > 0);
    assert!((0.0..1.0).contains(&fraction));
    morton_balance(forest, num_processes);
    if num_processes == 1 {
        return;
    }
    // Re-cut the balanced chunks in rank order (blocks by id inside a
    // chunk): rank 0's share is `fraction`, the others split the rest.
    let blocks = &forest.blocks;
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    order.sort_by_key(|&i| (blocks[i].rank, blocks[i].id));
    let total = forest.total_workload();
    let mut sizes =
        vec![total * (1.0 - fraction) / (num_processes - 1) as f64; num_processes as usize];
    sizes[0] = total * fraction;
    let ranks = cut_curve(&order, |i| blocks[i].workload, Quotas::Sizes(&sizes));
    balance_with(forest, num_processes, |i| ranks[i]);
}

/// Balances with a caller-supplied assignment function mapping each block
/// (workload, neighbors come from the caller's own analysis) to a rank.
/// Used to plug in the graph partitioner.
pub fn balance_with<F: FnMut(usize) -> u32>(
    forest: &mut SetupForest,
    num_processes: u32,
    mut assign: F,
) {
    for (i, b) in forest.blocks.iter_mut().enumerate() {
        let r = assign(i);
        assert!(r < num_processes, "assignment out of range");
        b.rank = r;
    }
    forest.num_processes = num_processes;
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_geometry::vec3::vec3;
    use trillium_geometry::Aabb;

    #[test]
    fn morton_code_orders_locally() {
        // The eight corners of a 2³ cube enumerate 0..8 in octant order.
        let mut codes = Vec::new();
        for z in 0..2 {
            for y in 0..2 {
                for x in 0..2 {
                    codes.push(morton_code(x, y, z));
                }
            }
        }
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted);
        assert_eq!(codes[0], 0);
        assert_eq!(codes[7], 7);
    }

    #[test]
    fn morton_code_handles_large_coordinates() {
        let a = morton_code(1 << 20, 0, 0);
        let b = morton_code(0, 1 << 20, 0);
        let c = morton_code(0, 0, 1 << 20);
        assert!(a < b && b < c);
        assert_eq!(morton_code((1 << 21) - 1, (1 << 21) - 1, (1 << 21) - 1).count_ones(), 63);
    }

    #[test]
    fn balance_distributes_workload_evenly() {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(8.0, 8.0, 8.0));
        let mut f = SetupForest::uniform(domain, [8, 8, 8], [10, 10, 10]);
        morton_balance(&mut f, 64);
        assert_eq!(f.num_processes, 64);
        // 512 equal blocks over 64 ranks: exactly 8 each.
        let w = f.rank_workloads();
        assert!(w.iter().all(|&x| (x - 8.0 * 1000.0).abs() < 1e-9), "{w:?}");
        assert!((f.imbalance() - 1.0).abs() < 1e-12);
    }

    /// The assignments of the uncached-key sort this function used to
    /// do, recorded before the switch to `sort_by_cached_key`: a
    /// two-level refined forest block by block, and a 16³ uniform forest
    /// (the `cavity_smallblocks` shape) as an FNV-1a hash of its ranks.
    #[test]
    fn assignment_is_pinned_on_mixed_level_and_uniform_forests() {
        const MIXED_RANKS: [u32; 22] =
            [0, 0, 1, 2, 2, 3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1];
        const UNIFORM_HASH: [(u32, u64); 2] = [(2, 0x1856f46de9286b25), (7, 0xbe35385988536cc1)];

        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(2.0, 2.0, 2.0));
        let mut mixed = SetupForest::uniform(domain, [2, 2, 2], [16, 16, 16]);
        let target = mixed.blocks[3].id;
        mixed.refine_where(|b| b.id == target);
        let child = mixed.blocks.iter().find(|b| b.id.level() == 1).unwrap().id;
        mixed.refine_where(|b| b.id == child);
        morton_balance(&mut mixed, 4);
        let ranks: Vec<u32> = mixed.blocks.iter().map(|b| b.rank).collect();
        assert_eq!(ranks, MIXED_RANKS);

        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(16.0, 16.0, 16.0));
        let mut uniform = SetupForest::uniform(domain, [16, 16, 16], [8, 8, 8]);
        for (procs, expected) in UNIFORM_HASH {
            morton_balance(&mut uniform, procs);
            let hash = uniform.blocks.iter().fold(0xcbf29ce484222325u64, |h, b| {
                (h ^ b.rank as u64).wrapping_mul(0x100000001b3)
            });
            assert_eq!(hash, expected, "{procs} ranks");
        }
    }

    #[test]
    fn balance_with_unequal_workloads_stays_reasonable() {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(8.0, 8.0, 1.0));
        let mut f = SetupForest::uniform(domain, [8, 8, 1], [10, 10, 10]);
        // Make workloads vary.
        for (i, b) in f.blocks.iter_mut().enumerate() {
            b.workload = 100.0 + (i % 7) as f64 * 50.0;
        }
        morton_balance(&mut f, 8);
        let imb = f.imbalance();
        assert!(imb < 1.35, "imbalance {imb}");
        // All ranks used.
        let w = f.rank_workloads();
        assert!(w.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn skewed_balance_overloads_rank_zero() {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(8.0, 8.0, 8.0));
        let mut f = SetupForest::uniform(domain, [8, 8, 8], [10, 10, 10]);
        skewed_balance(&mut f, 4, 0.6);
        let w = f.rank_workloads();
        let total: f64 = w.iter().sum();
        // Rank 0 holds roughly 60% of the work; every rank holds some.
        assert!(w[0] / total > 0.5, "{w:?}");
        assert!(w.iter().all(|&x| x > 0.0), "{w:?}");
        assert!(f.imbalance() > 1.8, "imbalance {}", f.imbalance());
    }

    #[test]
    fn one_block_per_process_target() {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(4.0, 4.0, 4.0));
        let mut f = SetupForest::uniform(domain, [4, 4, 4], [8, 8, 8]);
        morton_balance(&mut f, 64);
        let mut counts = vec![0; 64];
        for b in &f.blocks {
            counts[b.rank as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 1), "{counts:?}");
    }

    #[test]
    fn curve_chunks_are_spatially_compact() {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(8.0, 8.0, 8.0));
        let mut f = SetupForest::uniform(domain, [8, 8, 8], [4, 4, 4]);
        morton_balance(&mut f, 64);
        // Each rank's 8 blocks must fit in a small bounding box (Morton
        // chunks of size 8 on an aligned grid are 2×2×2 cubes).
        for r in 0..64 {
            let mut bb = Aabb::EMPTY;
            for b in f.blocks.iter().filter(|b| b.rank == r) {
                bb.grow_box(&b.aabb);
            }
            let e = bb.extents();
            assert!(e.x <= 2.0 + 1e-9 && e.y <= 2.0 + 1e-9 && e.z <= 2.0 + 1e-9);
        }
    }
}
