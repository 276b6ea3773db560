//! The metric names, units and directions the benchmark emits: the same
//! lists `BENCHMARK.json` declares (a test holds the two equal).

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported for every workload: name, unit, direction
/// and the share of the parent's value by which it may get worse.
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    ("setup_s", "s", Lower, 0.25),
    ("time_to_solution_s", "s", Lower, 0.25),
    ("mlups", "MLUP/s", Higher, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.06),
];

/// Per-layer metrics: name, unit, direction. A traced run of one workload
/// reports every name; the ones no probe or slice of that workload
/// produces read 0 (the layer did no work there).
pub const PER_LAYER: [(&str, &str, Better); 107] = [
    // machine: the host, measured beside the numbers
    ("machine.llc_mib", "MiB", Higher),
    ("machine.stream_array_mib", "MiB", Higher),
    ("machine.copy_bw_gibs", "GiB/s", Higher),
    ("machine.lbm_bw_gibs", "GiB/s", Higher),
    ("machine.calib_cpu_ms", "ms", Lower),
    ("machine.calib_dram_ms", "ms", Lower),
    ("machine.calib_spread", "ratio", Lower),
    // perfmodel: the prediction beside kernels.*
    ("perfmodel.roofline_mlups", "MLUP/s", Higher),
    ("perfmodel.ecm_pull_mlups", "MLUP/s", Higher),
    ("perfmodel.ecm_inplace_mlups", "MLUP/s", Higher),
    // kernels, dense
    ("kernels.avx2_pull_trt_mlups", "MLUP/s", Higher),
    ("kernels.avx2_inplace_trt_mlups", "MLUP/s", Higher),
    ("kernels.avx2_pull_mrt_mlups", "MLUP/s", Higher),
    ("kernels.avx2_inplace_mrt_mlups", "MLUP/s", Higher),
    ("kernels.portable_pull_trt_mlups", "MLUP/s", Higher),
    ("kernels.portable_inplace_trt_mlups", "MLUP/s", Higher),
    ("kernels.workgroup_pull_trt_mlups", "MLUP/s", Higher),
    ("kernels.avx2_pull_trt_roofline_frac", "ratio", Higher),
    ("kernels.avx2_inplace_trt_roofline_frac", "ratio", Higher),
    ("kernels.bytes_per_lup_pull", "B/LUP", Lower),
    ("kernels.bytes_per_lup_inplace", "B/LUP", Lower),
    // kernels: sparse, split, boundary
    ("kernels.avx2_sparse_trt_mlups", "MLUP/s", Higher),
    ("kernels.portable_sparse_trt_mlups", "MLUP/s", Higher),
    ("kernels.avx2_sparse_mrt_mlups", "MLUP/s", Higher),
    ("kernels.sparse_over_dense_frac", "ratio", Higher),
    ("kernels.fallback_pull_blocks", "count", Lower),
    ("kernels.shell_split_ratio_96", "ratio", Lower),
    ("kernels.shell_split_ratio_16", "ratio", Lower),
    ("kernels.shell_split_ratio_8", "ratio", Lower),
    ("kernels.boundary_dense_mcells_s", "Mcell/s", Higher),
    ("kernels.boundary_sparse_mcells_s", "Mcell/s", Higher),
    // comm
    ("comm.pack_face_96_gbs", "GB/s", Higher),
    ("comm.unpack_face_96_gbs", "GB/s", Higher),
    ("comm.pack_face_8_gbs", "GB/s", Higher),
    ("comm.unpack_face_8_gbs", "GB/s", Higher),
    ("comm.copy_face_local_8_gbs", "GB/s", Higher),
    ("comm.pack_face_sparse_16_gbs", "GB/s", Higher),
    ("comm.unpack_face_sparse_16_gbs", "GB/s", Higher),
    ("comm.p2p_roundtrip_us", "us", Lower),
    ("comm.p2p_bw_gbs", "GB/s", Higher),
    ("comm.allreduce_us", "us", Lower),
    ("comm.recv_any_us", "us", Lower),
    ("comm.messages_per_step", "count", Lower),
    ("comm.bytes_per_step", "B", Lower),
    // geometry
    ("geometry.tree_generate_ms", "ms", Lower),
    ("geometry.tree_sdf_mevals_s", "M/s", Higher),
    ("geometry.voxelize_mcells_s", "Mcell/s", Higher),
    ("geometry.mesh_extract_s", "s", Lower),
    ("geometry.mesh_triangles", "count", Lower),
    ("geometry.mesh_sdf_build_s", "s", Lower),
    ("geometry.mesh_sdf_kevals_s", "k/s", Higher),
    // blockforest
    ("blockforest.from_domain_s", "s", Lower),
    ("blockforest.blocks", "count", Lower),
    ("blockforest.fluid_fraction", "ratio", Higher),
    ("blockforest.morton_balance_ms", "ms", Lower),
    ("blockforest.distribute_ms", "ms", Lower),
    ("blockforest.file_roundtrip_ms", "ms", Lower),
    // partition
    ("partition.graph_balance_ms", "ms", Lower),
    ("partition.edge_cut", "count", Lower),
    ("partition.imbalance", "ratio", Lower),
    // core: scenario, blocksim
    ("core.plan_run_s", "s", Lower),
    ("core.build_blocks_s", "s", Lower),
    ("core.build_block_dense_ms", "ms", Lower),
    ("core.build_block_carved_ms", "ms", Lower),
    // core: driver, per workload
    ("core.driver.loop_s", "s", Lower),
    ("core.driver.kernel_s", "s", Lower),
    ("core.driver.boundary_s", "s", Lower),
    ("core.driver.comm_s", "s", Lower),
    ("core.driver.stall_s", "s", Lower),
    ("core.driver.other_s", "s", Lower),
    ("core.driver.overlap_hidden_s", "s", Higher),
    ("core.driver.step_p50_ms", "ms", Lower),
    ("core.driver.step_p95_ms", "ms", Lower),
    ("core.driver.warmup_s", "s", Lower),
    ("core.driver.trace_overhead_frac", "ratio", Lower),
    // core: driver, probes
    ("core.driver.fanout_us", "us", Lower),
    ("core.driver.mlups_1rank", "MLUP/s", Higher),
    ("core.driver.mlups_2rank", "MLUP/s", Higher),
    ("core.driver.parallel_eff_2r", "ratio", Higher),
    // core: checkpoint, recovery
    ("core.checkpoint.save_mbs", "MB/s", Higher),
    ("core.checkpoint.restore_mbs", "MB/s", Higher),
    ("core.checkpoint.bytes_per_cell_pull", "B/cell", Lower),
    ("core.checkpoint.bytes_per_cell_inplace", "B/cell", Lower),
    ("core.recovery.rollback_ms", "ms", Lower),
    ("core.recovery.checkpoint_overhead_frac", "ratio", Lower),
    // rebalance
    ("rebalance.plan_8_us", "us", Lower),
    ("rebalance.plan_512_us", "us", Lower),
    ("rebalance.hetero_plan_512_us", "us", Lower),
    ("rebalance.migrations", "count", Lower),
    // obs
    ("obs.span_on_ns", "ns", Lower),
    ("obs.span_off_ns", "ns", Lower),
    ("obs.trace_event_ns", "ns", Lower),
    // jobs
    ("jobs.spec_parse_us", "us", Lower),
    ("jobs.submit_us", "us", Lower),
    ("jobs.jobs_per_s", "1/s", Higher),
    ("jobs.queue_p50_s", "s", Lower),
    ("jobs.queue_p95_s", "s", Lower),
    ("jobs.run_p50_ms", "ms", Lower),
    ("jobs.run_p95_ms", "ms", Lower),
    ("jobs.run_p50_ms.cavity-sync", "ms", Lower),
    ("jobs.run_p50_ms.cavity-overlapped-inplace", "ms", Lower),
    ("jobs.run_p50_ms.channel-sync", "ms", Lower),
    ("jobs.run_p50_ms.cavity-solo", "ms", Lower),
    ("jobs.run_p50_ms.cavity-rebalanced", "ms", Lower),
    ("jobs.run_p50_ms.cavity-resilient-crash-recover", "ms", Lower),
    ("jobs.recoveries", "count", Lower),
    ("jobs.overhead_share", "ratio", Lower),
];

/// Unit of a per-layer metric (empty for a name the list does not hold).
pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER.iter().find(|(n, _, _)| *n == name).map_or("", |(_, unit, _)| unit)
}
