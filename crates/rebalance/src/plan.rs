//! Deterministic repartitioning of the measured-cost block graph.

use bytes::{Buf, BufMut};
use trillium_blockforest::balance::{curve_order, cut_curve, Quotas};
use trillium_partition::{partition_kway, Graph};

/// Everything the planner needs to know about one block, as gathered
/// from its owning rank. 41 bytes on the wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockRecord {
    /// Packed `BlockId` (globally unique).
    pub id: u64,
    /// Current owner rank.
    pub owner: u32,
    /// Block coordinates on its refinement level.
    pub coords: [u32; 3],
    /// Refinement level (coords scale to the finest level by shifting).
    pub level: u8,
    /// Measured (EWMA-smoothed) cost per step, seconds.
    pub cost: f64,
    /// Interior fluid cells (proxy for interface size, not for cost).
    pub fluid_cells: u64,
}

impl BlockRecord {
    /// Serialized size in bytes.
    pub const WIRE_SIZE: usize = 8 + 4 + 12 + 1 + 8 + 8;

    /// Appends the wire encoding to `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u64_le(self.id);
        buf.put_u32_le(self.owner);
        for c in self.coords {
            buf.put_u32_le(c);
        }
        buf.put_u8(self.level);
        buf.put_f64_le(self.cost);
        buf.put_u64_le(self.fluid_cells);
    }

    /// Decodes one record from the front of `buf`.
    pub fn decode<B: Buf>(buf: &mut B) -> Self {
        let id = buf.get_u64_le();
        let owner = buf.get_u32_le();
        let coords = [buf.get_u32_le(), buf.get_u32_le(), buf.get_u32_le()];
        let level = buf.get_u8();
        let cost = buf.get_f64_le();
        let fluid_cells = buf.get_u64_le();
        BlockRecord { id, owner, coords, level, cost, fluid_cells }
    }
}

/// Encodes a rank's records back-to-back (allgather payload).
pub fn encode_records(records: &[BlockRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(records.len() * BlockRecord::WIRE_SIZE);
    for r in records {
        r.encode(&mut buf);
    }
    buf
}

/// A record buffer whose length is not a whole number of records — the
/// bytes come from a peer, so this is an error, not an invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RaggedRecords;

/// Decodes a back-to-back record buffer.
pub fn decode_records(mut data: &[u8]) -> Result<Vec<BlockRecord>, RaggedRecords> {
    if !data.len().is_multiple_of(BlockRecord::WIRE_SIZE) {
        return Err(RaggedRecords);
    }
    let mut out = Vec::with_capacity(data.len() / BlockRecord::WIRE_SIZE);
    while !data.is_empty() {
        out.push(BlockRecord::decode(&mut data));
    }
    Ok(out)
}

/// One block move prescribed by a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// Packed id of the block to move.
    pub id: u64,
    /// Current owner.
    pub from: u32,
    /// New owner.
    pub to: u32,
}

/// Which algorithm produced the accepted assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanMethod {
    /// Multilevel k-way partitioning of the measured-cost block graph.
    Graph,
    /// Morton space-filling-curve cut by cost quota (fallback).
    MortonSfc,
    /// Load was already balanced (or unmeasurable); nothing moves.
    NoOp,
}

/// Planner knobs.
#[derive(Clone, Copy, Debug)]
pub struct PlanOptions {
    /// Minimum relative improvement of the load ratio the graph
    /// partitioner must predict for its plan to be accepted; below this
    /// floor the Morton-curve cut is used instead. The graph plan
    /// minimizes edge cut *subject to* balance tolerance, so on oddly
    /// shaped cost distributions it can leave more imbalance on the
    /// table than the curve cut, which optimizes balance alone.
    pub min_graph_gain: f64,
    /// Seed for the (randomized but deterministic) graph partitioner.
    /// Every rank must use the same seed to compute the same plan.
    pub seed: u64,
    /// Ratio below which the plan is a no-op regardless of method: moving
    /// blocks to chase a few percent costs more than it recovers.
    pub min_ratio: f64,
}

impl Default for PlanOptions {
    fn default() -> Self {
        Self { min_graph_gain: 0.05, seed: 12345, min_ratio: 1.05 }
    }
}

/// The agreed outcome of one rebalance decision: a new owner per block.
/// The moves follow from it ([`RebalancePlan::migrations`]), so a plan
/// cannot name a move its records contradict.
#[derive(Clone, Debug)]
pub struct RebalancePlan {
    /// Records sorted by block id, unique (the canonical order all ranks
    /// share).
    pub records: Vec<BlockRecord>,
    /// New owner per record, parallel to `records`.
    pub assignment: Vec<u32>,
    /// Accepted algorithm.
    pub method: PlanMethod,
    /// Measured max/avg load ratio before the plan.
    pub old_ratio: f64,
    /// Predicted max/avg load ratio under the accepted assignment.
    pub new_ratio: f64,
}

impl RebalancePlan {
    /// The plan that gives record `i` to `assignment[i]`.
    ///
    /// # Panics
    ///
    /// If the records are not sorted by id and unique, or the assignment
    /// does not have one owner per record.
    pub fn new(
        records: Vec<BlockRecord>,
        assignment: Vec<u32>,
        method: PlanMethod,
        old_ratio: f64,
        new_ratio: f64,
    ) -> Self {
        assert!(records.windows(2).all(|w| w[0].id < w[1].id), "records sorted by id, unique");
        assert_eq!(records.len(), assignment.len(), "one owner per record");
        RebalancePlan { records, assignment, method, old_ratio, new_ratio }
    }

    /// The plan that keeps every block where it is.
    pub(crate) fn noop(records: Vec<BlockRecord>, old_ratio: f64) -> Self {
        let owners = records.iter().map(|r| r.owner).collect();
        RebalancePlan::new(records, owners, PlanMethod::NoOp, old_ratio, old_ratio)
    }

    /// The blocks whose owner changes, in record (id) order.
    pub fn migrations(&self) -> impl Iterator<Item = Migration> + '_ {
        (self.records.iter().zip(&self.assignment))
            .filter(|(r, &a)| r.owner != a)
            .map(|(r, &a)| Migration { id: r.id, from: r.owner, to: a })
    }
}

pub(crate) fn load_ratio(records: &[BlockRecord], assignment: &[u32], num_ranks: u32) -> f64 {
    let mut per_rank = vec![0.0f64; num_ranks as usize];
    for (r, &a) in records.iter().zip(assignment) {
        per_rank[a as usize] += r.cost;
    }
    let total: f64 = per_rank.iter().sum();
    if total <= 0.0 {
        return 1.0;
    }
    let max = per_rank.iter().fold(0.0f64, |m, &v| m.max(v));
    max * num_ranks as f64 / total
}

/// Scales coords to the finest level present so adjacency nests.
pub(crate) fn scaled_coords(r: &BlockRecord, max_level: u8) -> [u64; 3] {
    let s = (max_level - r.level) as u64;
    [(r.coords[0] as u64) << s, (r.coords[1] as u64) << s, (r.coords[2] as u64) << s]
}

/// Places the records along the Morton curve: rank `r`'s chunk ends where
/// the cost summed from the start of the curve reaches `ends[r]`.
pub(crate) fn curve_assignment(records: &[BlockRecord], ends: &[f64]) -> Vec<u32> {
    let order = curve_order(records.len(), |i| {
        (records[i].coords.map(u64::from), records[i].level, records[i].id)
    });
    cut_curve(&order, |i| records[i].cost, Quotas::Ends(ends))
}

/// Builds the block graph: vertices weighted by measured cost, edges
/// between face-adjacent blocks weighted by an interface-area proxy
/// (fluid_cells^(2/3) of the smaller block), so the partitioner trades
/// cut ghost-exchange volume against load balance.
fn cost_graph(records: &[BlockRecord]) -> Graph {
    use std::collections::HashMap;
    let max_level = records.iter().map(|r| r.level).max().unwrap_or(0);
    let by_coords: HashMap<([u64; 3], u8), usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| ((scaled_coords(r, max_level), r.level), i))
        .collect();
    let mut edges = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let c = scaled_coords(r, max_level);
        let step = 1u64 << (max_level - r.level);
        for axis in 0..3 {
            let mut n = c;
            n[axis] += step;
            // Same-level face neighbor (the uniform-forest common case;
            // level transitions simply contribute no edge and are kept
            // together by the balance constraint instead).
            if let Some(&j) = by_coords.get(&(n, r.level)) {
                let w = (records[i].fluid_cells.min(records[j].fluid_cells) as f64)
                    .powf(2.0 / 3.0)
                    .max(1.0);
                edges.push((i as u32, j as u32, w));
            }
        }
    }
    let vwgt: Vec<f64> = records.iter().map(|r| r.cost).collect();
    Graph::from_edges(records.len(), &edges, Some(vwgt))
}

/// Relabels partition parts to maximize cost overlap with the current
/// owners. Partitioners number their parts arbitrarily: a perfectly
/// balanced assignment with permuted labels would migrate *every* block
/// while changing nothing about the balance. The load ratio is
/// label-invariant, so greedily matching parts to the owners they
/// already mostly live on minimizes migration volume for free.
fn remap_to_owners(records: &[BlockRecord], assignment: &mut [u32], num_ranks: u32) {
    let n = num_ranks as usize;
    let mut overlap = vec![0.0f64; n * n]; // [part][owner]
    for (r, &a) in records.iter().zip(assignment.iter()) {
        overlap[a as usize * n + r.owner as usize] += r.cost;
    }
    let mut part_to_rank = vec![u32::MAX; n];
    let mut rank_taken = vec![false; n];
    for _ in 0..n {
        let mut best = (0usize, 0usize, -1.0f64);
        for p in 0..n {
            if part_to_rank[p] != u32::MAX {
                continue;
            }
            for r in 0..n {
                if !rank_taken[r] && overlap[p * n + r] > best.2 {
                    best = (p, r, overlap[p * n + r]);
                }
            }
        }
        part_to_rank[best.0] = best.1 as u32;
        rank_taken[best.1] = true;
    }
    for a in assignment.iter_mut() {
        *a = part_to_rank[*a as usize];
    }
}

/// Computes a deterministic rebalance plan from the gathered records.
///
/// Every rank calls this with the same record set (any order — records
/// are canonicalized by id) and identical `opts`, and obtains the same
/// plan, so the decision needs no extra agreement round.
pub fn plan_rebalance(
    mut records: Vec<BlockRecord>,
    num_ranks: u32,
    opts: &PlanOptions,
) -> RebalancePlan {
    assert!(num_ranks > 0);
    records.sort_by_key(|r| r.id);
    let current: Vec<u32> = records.iter().map(|r| r.owner).collect();
    let old_ratio = load_ratio(&records, &current, num_ranks);
    let total_cost: f64 = records.iter().map(|r| r.cost).sum();

    if num_ranks == 1 || total_cost <= 0.0 || old_ratio <= opts.min_ratio {
        return RebalancePlan::noop(records, old_ratio);
    }

    // Preferred: multilevel k-way partitioning of the cost graph.
    let graph = cost_graph(&records);
    let mut graph_assign = partition_kway(&graph, num_ranks as usize, opts.seed);
    remap_to_owners(&records, &mut graph_assign, num_ranks);
    let graph_ratio = load_ratio(&records, &graph_assign, num_ranks);
    let graph_gain = (old_ratio - graph_ratio) / old_ratio;

    let (assignment, method, new_ratio) = if graph_gain >= opts.min_graph_gain {
        (graph_assign, PlanMethod::Graph, graph_ratio)
    } else {
        // Fallback: pure balance optimization, equal shares of the cost
        // along the Morton curve.
        let per_rank = total_cost / num_ranks as f64;
        let ends: Vec<f64> = (0..num_ranks).map(|r| per_rank * (r + 1) as f64).collect();
        let mut sfc = curve_assignment(&records, &ends);
        remap_to_owners(&records, &mut sfc, num_ranks);
        let sfc_ratio = load_ratio(&records, &sfc, num_ranks);
        if (old_ratio - sfc_ratio) / old_ratio >= opts.min_graph_gain {
            (sfc, PlanMethod::MortonSfc, sfc_ratio)
        } else {
            return RebalancePlan::noop(records, old_ratio);
        }
    };
    RebalancePlan::new(records, assignment, method, old_ratio, new_ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A uniform grid of blocks, all owned as `owner_of` says, with the
    /// given per-block cost function.
    fn grid_records<FO, FC>(n: u32, owner_of: FO, cost_of: FC) -> Vec<BlockRecord>
    where
        FO: Fn(u32, u32, u32) -> u32,
        FC: Fn(u32, u32, u32) -> f64,
    {
        let mut out = Vec::new();
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let i = (z * n + y) * n + x;
                    out.push(BlockRecord {
                        id: i as u64 + 1,
                        owner: owner_of(x, y, z),
                        coords: [x, y, z],
                        level: 0,
                        cost: cost_of(x, y, z),
                        fluid_cells: 1000,
                    });
                }
            }
        }
        out
    }

    #[test]
    fn records_roundtrip_on_the_wire() {
        let r = BlockRecord {
            id: 0xDEAD_BEEF,
            owner: 3,
            coords: [5, 6, 7],
            level: 2,
            cost: 0.125,
            fluid_cells: 4096,
        };
        let buf = encode_records(&[r, r]);
        assert_eq!(buf.len(), 2 * BlockRecord::WIRE_SIZE);
        assert_eq!(decode_records(&buf), Ok(vec![r, r]));
        // A peer's buffer cut short mid-record is reported, not asserted on.
        assert_eq!(decode_records(&buf[..buf.len() - 5]), Err(RaggedRecords));
    }

    #[test]
    fn balanced_load_is_a_noop() {
        let records = grid_records(4, |x, _, _| x % 4, |_, _, _| 1.0);
        let plan = plan_rebalance(records, 4, &PlanOptions::default());
        assert_eq!(plan.method, PlanMethod::NoOp);
        assert_eq!(plan.migrations().count(), 0);
        assert!((plan.old_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_load_produces_migrations_and_better_ratio() {
        // Rank 0 owns half the grid; uniform cost.
        let records = grid_records(4, |x, _, _| if x < 2 { 0 } else { 1 + x % 3 }, |_, _, _| 1.0);
        let plan = plan_rebalance(records, 4, &PlanOptions::default());
        assert_ne!(plan.method, PlanMethod::NoOp);
        assert_ne!(plan.migrations().count(), 0);
        assert!(plan.new_ratio < plan.old_ratio, "{} !< {}", plan.new_ratio, plan.old_ratio);
        assert!(plan.new_ratio < 1.3, "predicted ratio {}", plan.new_ratio);
        // Every migration names a known block, moves it away from the
        // record's owner, and to another rank.
        for m in plan.migrations() {
            let i = plan.records.binary_search_by_key(&m.id, |r| r.id).expect("a known block");
            assert_eq!(plan.records[i].owner, m.from);
            assert_ne!(m.from, m.to);
        }
    }

    #[test]
    fn plan_is_deterministic_and_order_independent() {
        let records =
            grid_records(4, |x, _, _| if x < 2 { 0 } else { 1 }, |x, _, _| 1.0 + x as f64);
        let mut shuffled = records.clone();
        shuffled.reverse();
        let a = plan_rebalance(records, 4, &PlanOptions::default());
        let b = plan_rebalance(shuffled, 4, &PlanOptions::default());
        assert_eq!(a.assignment, b.assignment);
        assert!(a.migrations().eq(b.migrations()));
        assert_eq!(a.method, b.method);
    }

    #[test]
    fn costs_drive_the_cut_not_cell_counts() {
        // Equal cell counts everywhere, but the x=0 slab is 10x more
        // expensive (e.g. boundary-heavy blocks). By cell count the
        // initial x-parity split is perfectly balanced — only measured
        // cost reveals the skew, and the planner must split the
        // expensive slab across both ranks.
        let records = grid_records(4, |x, _, _| x % 2, |x, _, _| if x == 0 { 10.0 } else { 1.0 });
        let plan = plan_rebalance(records, 2, &PlanOptions::default());
        assert_ne!(plan.method, PlanMethod::NoOp);
        // Count expensive blocks per new rank: they must split ~evenly.
        let mut expensive = [0u32; 2];
        for (r, &a) in plan.records.iter().zip(&plan.assignment) {
            if r.cost > 1.0 {
                expensive[a as usize] += 1;
            }
        }
        assert!(expensive[0] >= 6 && expensive[0] <= 10, "{expensive:?}");
    }

    #[test]
    fn graph_fallback_floor_forces_sfc_or_noop() {
        // With an impossible gain floor the graph plan is always
        // rejected; the SFC fallback must still improve a gross skew.
        let records = grid_records(3, |_, _, _| 0, |_, _, _| 1.0);
        let opts = PlanOptions { min_graph_gain: 0.0, ..PlanOptions::default() };
        let plan = plan_rebalance(records.clone(), 3, &opts);
        assert!(plan.new_ratio <= plan.old_ratio);
        // Floor of 2.0 (200% gain) is unreachable for the graph; SFC can
        // still reach it here (old ratio 3.0 → 1.0 is a 67% gain, below
        // 200%), so the plan degrades to NoOp.
        let opts = PlanOptions { min_graph_gain: 2.0, ..PlanOptions::default() };
        let plan = plan_rebalance(records, 3, &opts);
        assert_eq!(plan.method, PlanMethod::NoOp);
    }

    #[test]
    fn label_permutations_do_not_migrate() {
        // An assignment that permutes part labels but keeps the same
        // groups must be remapped onto the current owners: zero moves.
        let records = grid_records(2, |x, _, _| x, |_, _, _| 1.0);
        let mut assignment: Vec<u32> = records.iter().map(|r| 1 - r.owner).collect();
        remap_to_owners(&records, &mut assignment, 2);
        let owners: Vec<u32> = records.iter().map(|r| r.owner).collect();
        assert_eq!(assignment, owners);
    }

    #[test]
    fn single_rank_never_migrates() {
        let records = grid_records(2, |_, _, _| 0, |x, _, _| x as f64 + 1.0);
        let plan = plan_rebalance(records, 1, &PlanOptions::default());
        assert_eq!(plan.method, PlanMethod::NoOp);
        assert_eq!(plan.migrations().count(), 0);
    }
}
