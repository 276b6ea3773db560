//! Rank pools of unequal speed: placement by shares.
//!
//! [`plan_rebalance`](crate::plan_rebalance) balances *cost* under the
//! assumption that every rank retires cost at the same rate — true on the
//! paper's homogeneous machines, false the moment a node pool mixes
//! processors of different speed. A [`RankPool`] gives each rank a speed
//! and [`plan_rebalance_hetero`] cuts the Morton curve into chunks of
//! work *proportional to each rank's speed*, so that per-rank wall time —
//! not per-rank work — is balanced. It is the same curve cut as every
//! other placement (`trillium_blockforest::balance::cut_curve`); only the
//! quotas differ. Where the speeds come from is the caller's business: a
//! model or a benchmark.

use crate::plan::{curve_assignment, BlockRecord, PlanMethod, RebalancePlan};

/// The capability of every rank in a (possibly heterogeneous) pool:
/// `speeds[r]` is the rate at which rank `r` retires block cost, in cost
/// units per second (MLUPS when cost is measured in cells).
#[derive(Clone, Debug)]
pub struct RankPool {
    speeds: Vec<f64>,
}

impl RankPool {
    /// A pool from explicit per-rank speeds (all must be positive).
    pub fn from_speeds(speeds: Vec<f64>) -> Self {
        assert!(!speeds.is_empty(), "pool needs at least one rank");
        assert!(speeds.iter().all(|&s| s > 0.0), "speeds must be positive");
        Self { speeds }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> u32 {
        self.speeds.len() as u32
    }

    /// Per-rank speeds.
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }
}

/// Per-rank wall time under an assignment: rank `r`'s summed block cost
/// divided by its speed.
pub fn rank_times(records: &[BlockRecord], assignment: &[u32], pool: &RankPool) -> Vec<f64> {
    let mut work = vec![0.0f64; pool.speeds.len()];
    for (r, &a) in records.iter().zip(assignment) {
        work[a as usize] += r.cost;
    }
    work.iter().zip(&pool.speeds).map(|(w, s)| w / s).collect()
}

/// Time-based load ratio: max over avg of per-rank wall times. The
/// heterogeneous analogue of the cost ratio the homogeneous planner
/// reports — on a uniform pool the two coincide.
pub fn hetero_load_ratio(records: &[BlockRecord], assignment: &[u32], pool: &RankPool) -> f64 {
    let times = rank_times(records, assignment, pool);
    let total: f64 = times.iter().sum();
    if total <= 0.0 {
        return 1.0;
    }
    let max = times.iter().fold(0.0f64, |m, &v| m.max(v));
    max * times.len() as f64 / total
}

/// Computes a deterministic placement of the gathered records on a
/// heterogeneous rank pool, balancing wall time rather than raw cost.
///
/// Unlike the homogeneous planner, parts are *pinned* to ranks: the
/// chunk sized for a fast rank must land on that rank, so no
/// owner-overlap relabeling is applied (relabeling would re-introduce
/// exactly the capability mismatch this planner removes). Every rank
/// calling this with the same records and pool obtains the same plan.
///
/// `min_ratio` is the time-ratio floor below which the current
/// assignment is kept (same semantics as
/// [`PlanOptions::min_ratio`](crate::PlanOptions)). The plan's ratio
/// fields are *time* ratios, which is what this planner optimizes; a
/// placement no better than the current one is never accepted.
pub fn plan_rebalance_hetero(
    mut records: Vec<BlockRecord>,
    pool: &RankPool,
    min_ratio: f64,
) -> RebalancePlan {
    records.sort_by_key(|r| r.id);
    let current: Vec<u32> = records.iter().map(|r| r.owner).collect();
    let old_ratio = hetero_load_ratio(&records, &current, pool);
    let total_cost: f64 = records.iter().map(|r| r.cost).sum();
    if pool.num_ranks() == 1 || total_cost <= 0.0 || old_ratio <= min_ratio {
        return RebalancePlan::noop(records, old_ratio);
    }

    // Rank r's chunk ends at total · Σ_{i≤r} speed_i / Σ speed.
    let speed_total: f64 = pool.speeds.iter().sum();
    let mut acc_speed = 0.0;
    let ends: Vec<f64> = pool
        .speeds
        .iter()
        .map(|&s| {
            acc_speed += s;
            total_cost * acc_speed / speed_total
        })
        .collect();
    let assignment = curve_assignment(&records, &ends);
    let new_ratio = hetero_load_ratio(&records, &assignment, pool);
    if new_ratio >= old_ratio {
        return RebalancePlan::noop(records, old_ratio);
    }
    RebalancePlan::new(records, assignment, PlanMethod::MortonSfc, old_ratio, new_ratio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::load_ratio;

    fn grid_records(n: u32, ranks: u32, cost: f64) -> Vec<BlockRecord> {
        let mut out = Vec::new();
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let i = (z * n + y) * n + x;
                    out.push(BlockRecord {
                        id: i as u64 + 1,
                        owner: i % ranks,
                        coords: [x, y, z],
                        level: 0,
                        cost,
                        fluid_cells: 1000,
                    });
                }
            }
        }
        out
    }

    /// On a uniform pool the weighted cut reduces to the equal-cost cut:
    /// the time ratio equals the cost ratio.
    #[test]
    fn uniform_pool_matches_cost_balance() {
        let records = grid_records(4, 4, 1.0);
        let pool = RankPool::from_speeds(vec![100.0; 4]);
        let plan = plan_rebalance_hetero(records, &pool, 1.05);
        let t = hetero_load_ratio(&plan.records, &plan.assignment, &pool);
        let c = load_ratio(&plan.records, &plan.assignment, 4);
        assert!((t - c).abs() < 1e-12);
        assert!(t < 1.05, "uniform grid balances: {t}");
    }

    /// A fast rank must receive proportionally more work: on a 2-rank
    /// pool with a 4x speed gap, time balance puts ~80 % of the cost on
    /// the fast rank, and the resulting makespan beats the equal-split.
    #[test]
    fn fast_ranks_take_proportionally_more_work() {
        let records = grid_records(4, 2, 1.0); // 64 blocks, unit cost
        let pool = RankPool::from_speeds(vec![400.0, 100.0]);
        let plan = plan_rebalance_hetero(records.clone(), &pool, 1.05);
        assert_eq!(plan.method, PlanMethod::MortonSfc);
        let mut per_rank = [0.0f64; 2];
        for (r, &a) in plan.records.iter().zip(&plan.assignment) {
            per_rank[a as usize] += r.cost;
        }
        assert!(per_rank[0] > 3.5 * per_rank[1], "fast rank got {per_rank:?}");
        // Equal split (32/32) leaves the slow rank as a 0.32 s straggler;
        // the weighted cut's makespan must be close to the 0.128 s ideal.
        let equal: Vec<u32> = (0..64).map(|i| if i < 32 { 0 } else { 1 }).collect();
        let makespan =
            |a: &[u32]| rank_times(&plan.records, a, &pool).into_iter().fold(0.0, f64::max);
        let (m_eq, m_ht) = (makespan(&equal), makespan(&plan.assignment));
        assert!(m_ht < 0.6 * m_eq, "hetero {m_ht} vs equal {m_eq}");
    }

    #[test]
    fn plan_is_deterministic() {
        let records = grid_records(3, 3, 2.0);
        let mut shuffled = records.clone();
        shuffled.reverse();
        let pool = RankPool::from_speeds(vec![100.0, 300.0, 100.0]);
        let a = plan_rebalance_hetero(records, &pool, 1.05);
        let b = plan_rebalance_hetero(shuffled, &pool, 1.05);
        assert_eq!(a.assignment, b.assignment);
        assert!(a.migrations().eq(b.migrations()));
    }

    #[test]
    fn balanced_in_time_is_a_noop() {
        // One block per rank, cost proportional to speed: already
        // time-balanced even though cost is wildly skewed.
        let mut records = grid_records(1, 1, 1.0);
        records[0].cost = 4.0;
        let mut r2 = records[0];
        r2.id = 2;
        r2.owner = 1;
        r2.coords = [1, 0, 0];
        r2.cost = 1.0;
        records.push(r2);
        records[0].owner = 0;
        let pool = RankPool::from_speeds(vec![400.0, 100.0]);
        let plan = plan_rebalance_hetero(records, &pool, 1.05);
        assert_eq!(plan.method, PlanMethod::NoOp);
        assert_eq!(plan.migrations().count(), 0);
    }
}
