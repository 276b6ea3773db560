//! Fig 7: weak scaling on the complex vascular geometry.
//!
//! For every core count the domain is re-partitioned (real geometric
//! computation on the synthetic coronary tree) with a target of up to
//! four blocks per process; the plotted quantities are the *fluid
//! fraction* of the allocated blocks — which rises with the core count
//! because more, smaller-in-space blocks fit the vessel tree better
//! (cf. Fig 1) — and MFLUPS per core, which rises with it: the
//! row-interval kernels traverse fewer dead cells and the (fluid-blind)
//! communication is amortized over more fluid per block.

use crate::fig6::DENSE_OVERHEAD;
use serde::Serialize;
use trillium_blockforest::search_weak_partition_sampled;
use trillium_field::{RowIntervals, Shape};
use trillium_geometry::voxelize::{voxelize_block, VoxelizeConfig};
use trillium_geometry::SignedDistance;
use trillium_machine::MachineSpec;
use trillium_perfmodel::roofline_mlups;

/// One point of the Fig 7 curves.
#[derive(Clone, Debug, Serialize)]
pub struct Fig7Row {
    /// Total cores.
    pub cores: u64,
    /// Blocks in the partitioning.
    pub blocks: usize,
    /// MFLUPS per core.
    pub mflups_per_core: f64,
    /// Fluid fraction of all allocated blocks.
    pub fluid_fraction: f64,
    /// Resolution chosen by the partition search.
    pub dx: f64,
}

/// Experiment parameters (block size and process shape differ per
/// machine, §4.3).
#[derive(Copy, Clone, Debug)]
pub struct Fig7Config {
    /// Cubic block edge in cells (SuperMUC: 170, JUQUEEN: 80).
    pub block_edge: usize,
    /// Threads per process (both machines use 4).
    pub threads: u32,
    /// Cores per process (SuperMUC 4P4T: 4; JUQUEEN 16P4T: 1 — the four
    /// threads are SMT).
    pub cores_per_proc: u32,
    /// Workload sampling resolution for forest construction.
    pub samples: usize,
    /// How many partially covered blocks to voxelize (at reduced
    /// resolution) for the covered-cells estimate.
    pub coverage_sample_blocks: usize,
}

impl Fig7Config {
    /// The paper's configuration for a machine (with scaled-down sampling
    /// defaults suitable for a workstation run).
    pub fn paper(machine: &MachineSpec) -> Self {
        match machine.name {
            "SuperMUC" => Fig7Config {
                block_edge: 170,
                threads: 4,
                cores_per_proc: 4,
                samples: 4,
                coverage_sample_blocks: 6,
            },
            _ => Fig7Config {
                block_edge: 80,
                threads: 4,
                cores_per_proc: 1,
                samples: 4,
                coverage_sample_blocks: 6,
            },
        }
    }
}

/// Estimates the covered/fluid cell ratio of the row-interval kernels by
/// voxelizing a few partially covered blocks (at a capped resolution so
/// the estimate stays cheap).
pub fn covered_ratio(
    sdf: &dyn SignedDistance,
    forest: &trillium_blockforest::SetupForest,
    block_edge: usize,
    sample_blocks: usize,
) -> f64 {
    let partial: Vec<&trillium_blockforest::SetupBlock> =
        forest.blocks.iter().filter(|b| !b.fully_inside).collect();
    if partial.is_empty() {
        return 1.0;
    }
    let res = block_edge.clamp(4, 40);
    let shape = Shape::new(res, res, res, 1);
    let mut covered = 0usize;
    let mut fluid = 0usize;
    let step = (partial.len() / sample_blocks.max(1)).max(1);
    for b in partial.iter().step_by(step).take(sample_blocks.max(1)) {
        let dx = b.aabb.extents().x / res as f64;
        let flags = voxelize_block(sdf, b.aabb.min, dx, shape, &VoxelizeConfig::default());
        let ri = RowIntervals::build(&flags);
        covered += ri.covered_cells();
        fluid += ri.fluid_cells;
    }
    if fluid == 0 {
        1.0
    } else {
        (covered as f64 / fluid as f64).max(1.0)
    }
}

/// Evaluates one core count.
pub fn fig7_point(
    sdf: &dyn SignedDistance,
    machine: &MachineSpec,
    cfg: &Fig7Config,
    cores: u64,
) -> Fig7Row {
    let procs = (cores / cfg.cores_per_proc as u64).max(1);
    // "We allocate up to four blocks on every process."
    let target_blocks = (procs * 4) as usize;
    let e = cfg.block_edge;
    let search = search_weak_partition_sampled(sdf, [e, e, e], target_blocks, 28, cfg.samples);
    let forest = search.forest;
    let blocks = forest.num_blocks();
    let block_cells = (e * e * e) as f64;
    let fluid_total = forest.total_workload();
    let fluid_fraction = fluid_total / (block_cells * blocks as f64);

    // Kernel time: covered cells per core at the dense per-core rate.
    let ratio = covered_ratio(sdf, &forest, cfg.block_edge, cfg.coverage_sample_blocks);
    let covered_total = (fluid_total * ratio).min(block_cells * blocks as f64);
    let per_core_rate =
        roofline_mlups(machine.lbm_bw_gib, 19) * machine.sockets_per_node as f64 * 1e6
            / machine.cores_per_node() as f64
            / DENSE_OVERHEAD;
    let t_kernel = covered_total / cores as f64 / per_core_rate;

    // Communication: fluid-blind, dense block faces ("the amount of data
    // communicated between neighboring blocks is the same as for densely
    // populated blocks").
    let blocks_per_proc = (blocks as f64 / procs as f64).max(1.0);
    let face = (e * e * 5 * 8) as u64;
    let edge_b = (e * 8) as u64;
    let mut msgs = vec![face; 6];
    msgs.extend(vec![edge_b; 12]);
    let t_comm = machine.network.exchange_time(&msgs, cores) * blocks_per_proc / cfg.threads as f64;

    // Modeled: comm hides behind an interior-core sweep (`overlap`).
    let t = t_kernel + crate::overlap::unhidden_comm_time(t_kernel, t_comm, e);
    Fig7Row {
        cores,
        blocks,
        mflups_per_core: fluid_total / cores as f64 / t / 1e6,
        fluid_fraction,
        dx: search.dx,
    }
}

/// A full weak-scaling series over power-of-two core counts.
pub fn fig7_series(
    sdf: &dyn SignedDistance,
    machine: &MachineSpec,
    cfg: &Fig7Config,
    core_range: (u32, u32),
) -> Vec<Fig7Row> {
    (core_range.0..=core_range.1).map(|p| fig7_point(sdf, machine, cfg, 1u64 << p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::test_tree;

    /// The defining Fig 7 shape at reduced scale: both the fluid fraction
    /// and MFLUPS/core *increase* with the core count — the opposite of
    /// ordinary weak scaling, caused by the better geometric fit of more,
    /// smaller blocks.
    #[test]
    fn efficiency_rises_with_scale() {
        let t = test_tree();
        let m = MachineSpec::juqueen();
        let cfg = Fig7Config {
            block_edge: 16,
            threads: 4,
            cores_per_proc: 1,
            samples: 4,
            coverage_sample_blocks: 4,
        };
        let lo = fig7_point(&t, &m, &cfg, 1 << 5);
        let hi = fig7_point(&t, &m, &cfg, 1 << 9);
        assert!(
            hi.fluid_fraction > lo.fluid_fraction,
            "{} vs {}",
            lo.fluid_fraction,
            hi.fluid_fraction
        );
        assert!(
            hi.mflups_per_core > lo.mflups_per_core,
            "{} vs {}",
            lo.mflups_per_core,
            hi.mflups_per_core
        );
        // Sparse geometry: efficiency well below the dense rate.
        let dense = roofline_mlups(m.lbm_bw_gib, 19) / m.cores_per_node() as f64;
        assert!(hi.mflups_per_core < dense);
        assert!(hi.blocks > lo.blocks);
        assert!(hi.dx < lo.dx);
    }

    #[test]
    fn covered_ratio_at_least_one() {
        let t = test_tree();
        let cfg = Fig7Config {
            block_edge: 16,
            threads: 4,
            cores_per_proc: 1,
            samples: 4,
            coverage_sample_blocks: 4,
        };
        let search = search_weak_partition_sampled(&t, [16, 16, 16], 64, 20, 4);
        let r = covered_ratio(&t, &search.forest, cfg.block_edge, cfg.coverage_sample_blocks);
        assert!((1.0..4.0).contains(&r), "covered ratio {r}");
    }
}
