//! Layer probes: every crate timed from outside through its public
//! functions, on inputs sized like the workload the probe explains.
//!
//! Probes are grouped by the workload whose end-to-end metric they should
//! move (the "→" column of the README): a traced run of one workload runs
//! that workload's group only. A probe that streams memory uses one 192³
//! block (≥ 4× the last-level cache) unless its name carries a size;
//! small-block probes stay within a core's private cache and repeat the
//! call until one sample takes milliseconds.

use crate::rows::{put, Rows};
use crate::workloads::{
    cavity_dense, critical_rank, lid_velocity, step_total, vascular_domain, vascular_dx,
    vascular_tree, RANKS, VISCOSITY,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use trillium_blockforest::{distribute, file, morton_balance, SetupForest, NEIGHBOR_DIRS};
use trillium_comm::{
    copy_face_local, pack_face_sparse, pack_face_with, unpack_face_sparse, unpack_face_with,
    CrossingTable, FaultConfig, World,
};
use trillium_core::checkpoint::{restore_block, save_block};
use trillium_core::loadbalance::graph_balance;
use trillium_core::prelude::*;
use trillium_field::{FlagOps, Shape, SoaPdfField};
use trillium_geometry::voxelize::VoxelizeConfig;
use trillium_geometry::{
    vec3::vec3, voxelize_block, Aabb, AnalyticSdf, MeshSdf, SignedDistance, VascularTree,
};
use trillium_machine::{measure_copy_bandwidth, measure_lbm_bandwidth};
use trillium_obs::Recorder;
use trillium_perfmodel::{roofline_mlups, EcmModel};
use trillium_rebalance::hetero::{plan_rebalance_hetero, RankPool};
use trillium_rebalance::{plan_rebalance, BlockRecord, PlanOptions};

const TRT: Collision = Collision::Trt;
const MIB: f64 = 1024.0 * 1024.0;

fn relaxation() -> Relaxation {
    Relaxation::trt_from_viscosity(VISCOSITY)
}

/// Seconds per call of `f`, best of up to five repetitions of `iters`
/// calls each. A probe that has used its time budget stops repeating, so
/// the slow sweeps (seconds per 192³ block) do not starve the invocation:
/// they are sampled once, over a time long enough to average the host.
fn best_secs(iters: usize, mut f: impl FnMut()) -> f64 {
    const BUDGET_S: f64 = 1.0;
    let start = Instant::now();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / iters as f64);
        if start.elapsed().as_secs_f64() > BUDGET_S {
            break;
        }
    }
    best
}

/// The one block of an `n³` lid-driven cavity, built the way the driver
/// builds it (walls on five faces, the lid on +z; two-field pull scheme).
fn cavity_block(n: usize, kernel: KernelChoice) -> BlockSim {
    let scenario = Scenario::lid_driven_cavity(n, 1, VISCOSITY, 0.05).with_kernel(kernel);
    let plan = plan_run(&scenario, 1);
    scenario.build_block(&plan.views[0].blocks[0])
}

// ---- machine, perfmodel -----------------------------------------------------

/// Size of the largest cache the kernel reports for cpu0, in MiB.
pub fn llc_mib() -> f64 {
    let mut best = 0.0f64;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else { continue };
        let text = text.trim();
        let (digits, unit) = text.split_at(text.trim_end_matches(char::is_alphabetic).len());
        let scale = match unit {
            "K" => 1.0 / 1024.0,
            "M" => 1.0,
            "G" => 1024.0,
            _ => continue,
        };
        best = best.max(digits.parse::<f64>().unwrap_or(0.0) * scale);
    }
    best
}

/// Bytes per streamed array: four times the last-level cache, at least
/// 1 GiB, at most 2 GiB (a cache size the kernel misreports must not
/// exhaust memory).
pub fn stream_array_bytes(quick: bool) -> usize {
    if quick {
        return 8 << 20;
    }
    ((4.0 * llc_mib() * MIB) as usize).clamp(1 << 30, 2 << 30)
}

fn host_clock_ghz() -> f64 {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu MHz"))
                .and_then(|l| l.split(':').nth(1))
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .map_or(2.0, |mhz| mhz / 1000.0)
}

/// Rows every traced run reports: the sizes rule 4 is stated in.
pub fn machine_sizes(quick: bool, rows: &mut Rows) {
    put(rows, "machine.llc_mib", llc_mib());
    put(rows, "machine.stream_array_mib", stream_array_bytes(quick) as f64 / MIB);
}

/// Sustainable bandwidth of one core and the model figures computed
/// from it; returns the bandwidth in GiB/s.
fn machine_bandwidth(quick: bool, rows: &mut Rows) -> f64 {
    let bytes = stream_array_bytes(quick);
    // The crate's two STREAM kernels, as they report: the mean of three
    // passes after a warm-up pass.
    let copy = measure_copy_bandwidth(bytes, 3);
    let lbm = measure_lbm_bandwidth(bytes / (19 * 8), 3);
    put(rows, "machine.copy_bw_gibs", copy);
    put(rows, "machine.lbm_bw_gibs", lbm);
    let bw = copy.max(lbm);
    let ecm = EcmModel { mem_bw_gib: bw, ..EcmModel::supermuc_trt_simd(host_clock_ghz()) };
    put(rows, "perfmodel.roofline_mlups", roofline_mlups(bw, 19));
    put(rows, "perfmodel.ecm_pull_mlups", ecm.mlups(1));
    put(rows, "perfmodel.ecm_inplace_mlups", ecm.inplace().mlups(1));
    // Computed from the array sizes (load + store [+ write-allocate]), not
    // measured: cache misses are not in them.
    put(rows, "kernels.bytes_per_lup_pull", ecm.bytes_per_lup());
    put(rows, "kernels.bytes_per_lup_inplace", ecm.inplace().bytes_per_lup());
    bw
}

// ---- kernels ----------------------------------------------------------------

fn pull_mlups(b: &mut BlockSim, kind: BackendKind, collision: Collision) -> f64 {
    let (be, rel) = (kind.dispatch(), relaxation());
    let secs = best_secs(1, || {
        black_box(be.sweep_pull(collision, &b.src, &mut b.dst, rel));
        b.src.swap(&mut b.dst);
    });
    b.shape.interior_cells() as f64 / secs / 1e6
}

/// One sample is a pair of sweeps: the AA pattern alternates a transport
/// and a cell-local sweep, and a time step is one of either.
fn inplace_mlups(b: &mut BlockSim, kind: BackendKind, collision: Collision) -> f64 {
    let (be, rel) = (kind.dispatch(), relaxation());
    let secs = best_secs(2, || {
        black_box(be.sweep_inplace(collision, &mut b.src, rel));
        let parity = b.src.parity();
        b.src.set_parity(!parity);
    });
    b.shape.interior_cells() as f64 / secs / 1e6
}

fn boundary_mcells_s(b: &mut BlockSim) -> f64 {
    let cells = b
        .shape
        .with_ghosts()
        .iter()
        .filter(|&(x, y, z)| b.flags.flags(x, y, z).is_boundary())
        .count();
    let iters = (200_000 / cells.max(1)).max(1);
    cells as f64 / best_secs(iters, || b.apply_boundaries()) / 1e6
}

/// Cost of the overlapped schedule's interior/shell split on one dense
/// `n³` block, relative to one full sweep; both sides interleaved.
fn shell_split_ratio(n: usize) -> f64 {
    let mut b = cavity_block(n, KernelChoice::Pull);
    let rel = relaxation();
    let iters = (2_000_000 / (n * n * n)).max(1);
    let sample = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_secs_f64()
    };
    let (mut full, mut split) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        full = full.min(sample(&mut || {
            black_box(b.stream_collide(rel));
        }));
        split = split.min(sample(&mut || {
            black_box(b.stream_collide_interior(rel));
            black_box(b.stream_collide_shell(rel));
            b.swap_buffers();
        }));
    }
    split / full
}

/// One untimed sweep: the destination field is zero-mapped until first
/// written, and a probe sampled once must not be the one that pays for it.
fn touch_fields(b: &mut BlockSim) {
    black_box(BackendKind::Avx2.dispatch().sweep_pull(TRT, &b.src, &mut b.dst, relaxation()));
    b.src.swap(&mut b.dst);
}

fn dense_kernels(n: usize, bw_gibs: f64, rows: &mut Rows) {
    let mut b = cavity_block(n, KernelChoice::Pull);
    touch_fields(&mut b);
    use BackendKind::{Avx2, Portable, Workgroup};
    let avx2_pull = pull_mlups(&mut b, Avx2, TRT);
    put(rows, "kernels.avx2_pull_trt_mlups", avx2_pull);
    put(rows, "kernels.avx2_pull_mrt_mlups", pull_mlups(&mut b, Avx2, Collision::Mrt));
    put(rows, "kernels.portable_pull_trt_mlups", pull_mlups(&mut b, Portable, TRT));
    put(rows, "kernels.workgroup_pull_trt_mlups", pull_mlups(&mut b, Workgroup, TRT));
    put(rows, "kernels.boundary_dense_mcells_s", boundary_mcells_s(&mut b));
    let avx2_inplace = inplace_mlups(&mut b, Avx2, TRT);
    put(rows, "kernels.avx2_inplace_trt_mlups", avx2_inplace);
    put(rows, "kernels.avx2_inplace_mrt_mlups", inplace_mlups(&mut b, Avx2, Collision::Mrt));
    put(rows, "kernels.portable_inplace_trt_mlups", inplace_mlups(&mut b, Portable, TRT));
    let roofline = |bytes_per_lup: f64| bw_gibs * 1024.0 * MIB / bytes_per_lup / 1e6;
    put(
        rows,
        "kernels.avx2_pull_trt_roofline_frac",
        avx2_pull / roofline(rows["kernels.bytes_per_lup_pull"]),
    );
    put(
        rows,
        "kernels.avx2_inplace_trt_roofline_frac",
        avx2_inplace / roofline(rows["kernels.bytes_per_lup_inplace"]),
    );
}

/// A 192³ block carved by three crossing vessels (≈ 15 % fluid), for the
/// row-interval kernel at a working set beyond the cache.
fn carved_block(n: usize) -> BlockSim {
    let capsule = |a: [f64; 3], b: [f64; 3]| AnalyticSdf::Capsule {
        a: vec3(a[0], a[1], a[2]),
        b: vec3(b[0], b[1], b[2]),
        radius: 0.13,
    };
    let vessels = AnalyticSdf::Union(vec![
        capsule([0.0, 0.3, 0.3], [1.0, 0.6, 0.4]),
        capsule([0.3, 0.0, 0.7], [0.5, 1.0, 0.6]),
        capsule([0.7, 0.7, 0.0], [0.6, 0.4, 1.0]),
    ]);
    let flags = voxelize_block(
        &vessels,
        vec3(0.0, 0.0, 0.0),
        1.0 / n as f64,
        Shape::cube(n),
        &VoxelizeConfig::default(),
    );
    BlockSim::from_flags(flags, BoundaryParams::default(), 1.0, [0.0; 3])
}

fn sparse_kernels(n: usize, rows: &mut Rows) {
    let mut b = carved_block(n);
    touch_fields(&mut b);
    let rel = relaxation();
    let fluid = b.fluid_cells() as f64;
    let mut sparse = |kind: BackendKind, collision: Collision| {
        let be = kind.dispatch();
        let secs = best_secs(1, || {
            black_box(be.sweep_sparse(collision, &b.src, &mut b.dst, &b.intervals, rel));
            b.src.swap(&mut b.dst);
        });
        fluid / secs / 1e6
    };
    let avx2 = sparse(BackendKind::Avx2, TRT);
    put(rows, "kernels.avx2_sparse_trt_mlups", avx2);
    put(rows, "kernels.portable_sparse_trt_mlups", sparse(BackendKind::Portable, TRT));
    put(rows, "kernels.avx2_sparse_mrt_mlups", sparse(BackendKind::Avx2, Collision::Mrt));
    // Fluid-cell rate of the sparse sweep over the cell rate of a dense
    // sweep of the same fields.
    put(rows, "kernels.sparse_over_dense_frac", avx2 / pull_mlups(&mut b, BackendKind::Avx2, TRT));
    put(rows, "kernels.boundary_sparse_mcells_s", boundary_mcells_s(&mut b));
}

// ---- comm -------------------------------------------------------------------

/// Link directions that carry PDFs (6 faces, 12 edges).
fn crossing_dirs(table: &CrossingTable) -> Vec<[i8; 3]> {
    NEIGHBOR_DIRS.iter().copied().filter(|&d| !table.qs(d).is_empty()).collect()
}

/// One full ghost exchange of a block, all 18 directions: GB/s of message
/// bytes packed and unpacked.
fn exchange_gbs(f: &mut SoaPdfField<D3Q19>) -> (f64, f64) {
    let table = CrossingTable::new::<D3Q19>();
    let dirs = crossing_dirs(&table);
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); dirs.len()];
    let n = f.shape().nx;
    let iters = (100_000 / (n * n)).max(1);
    let pack = best_secs(iters, || {
        for (d, buf) in dirs.iter().zip(&mut bufs) {
            buf.clear();
            pack_face_with::<D3Q19, _>(f, *d, table.qs(*d), buf);
        }
    });
    let bytes: usize = bufs.iter().map(Vec::len).sum();
    // A message packed toward `d` has the size and PDF set of the one
    // that arrives from `-d`.
    let unpack = best_secs(iters, || {
        for (d, buf) in dirs.iter().zip(&bufs) {
            let from = [-d[0], -d[1], -d[2]];
            unpack_face_with::<D3Q19, _>(f, from, table.qs_reversed(from), buf);
        }
    });
    (bytes as f64 / pack / 1e9, bytes as f64 / unpack / 1e9)
}

fn copy_face_local_gbs(n: usize) -> f64 {
    let a = cavity_block(n, KernelChoice::Pull);
    let mut b = cavity_block(n, KernelChoice::Pull);
    let table = CrossingTable::new::<D3Q19>();
    let dirs = crossing_dirs(&table);
    let bytes: usize =
        dirs.iter().map(|&d| a.shape.boundary_slab(d, 1).num_cells() * table.qs(d).len() * 8).sum();
    let secs = best_secs((100_000 / (n * n)).max(1), || {
        for &d in &dirs {
            copy_face_local::<D3Q19, _, _>(&a.src, &mut b.src, d);
        }
    });
    bytes as f64 / secs / 1e9
}

fn sparse_exchange_gbs(b: &mut BlockSim) -> (f64, f64) {
    let table = CrossingTable::new::<D3Q19>();
    let dirs = crossing_dirs(&table);
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); dirs.len()];
    let pack = best_secs(200, || {
        for (d, buf) in dirs.iter().zip(&mut bufs) {
            buf.clear();
            pack_face_sparse::<D3Q19, _>(&b.src, &b.flags, *d, buf);
        }
    });
    let bytes: usize = bufs.iter().map(Vec::len).sum();
    let unpack = best_secs(200, || {
        for (d, buf) in dirs.iter().zip(&bufs) {
            unpack_face_sparse::<D3Q19, _>(&mut b.src, [-d[0], -d[1], -d[2]], buf);
        }
    });
    (bytes as f64 / pack / 1e9, bytes as f64 / unpack / 1e9)
}

/// The thread-backed message runtime between two ranks: small-message
/// round trip, 1 MiB one-way bandwidth, all-reduce, and `recv_any` with
/// 26 outstanding (from, tag) pairs, the drain of one block's neighbors.
fn comm_runtime(quick: bool, rows: &mut Rows) {
    let iters = if quick { 100 } else { 2000 };
    const PAIRS: u64 = 26;
    let per_rank = World::run(2, |mut comm| {
        let (me, peer) = (comm.rank(), 1 - comm.rank());
        let mut best = [f64::INFINITY; 4];
        for _ in 0..5 {
            comm.barrier();
            let t = Instant::now();
            for _ in 0..iters {
                if me == 0 {
                    comm.send(peer, 1, vec![0u8; 8]);
                    black_box(comm.recv(peer, 2));
                } else {
                    black_box(comm.recv(peer, 1));
                    comm.send(peer, 2, vec![0u8; 8]);
                }
            }
            best[0] = best[0].min(t.elapsed().as_secs_f64() / iters as f64);

            let big = iters / 20 + 1;
            comm.barrier();
            let t = Instant::now();
            for _ in 0..big {
                if me == 0 {
                    comm.send(peer, 3, vec![0u8; 1 << 20]);
                } else {
                    black_box(comm.recv(peer, 3));
                }
            }
            comm.barrier();
            best[1] = best[1].min(t.elapsed().as_secs_f64() / big as f64);

            comm.barrier();
            let t = Instant::now();
            for i in 0..iters {
                black_box(comm.allreduce_sum_f64(i as f64));
            }
            best[2] = best[2].min(t.elapsed().as_secs_f64() / iters as f64);

            let batches = iters / 20 + 1;
            comm.barrier();
            let t = Instant::now();
            for _ in 0..batches {
                if me == 0 {
                    let mut pairs: Vec<(u32, u64)> = (0..PAIRS).map(|k| (peer, 100 + k)).collect();
                    while !pairs.is_empty() {
                        let (i, data) = comm.recv_any(&pairs);
                        black_box(data);
                        pairs.swap_remove(i);
                    }
                    comm.send(peer, 4, Vec::new());
                } else {
                    for k in 0..PAIRS {
                        comm.send(peer, 100 + k, vec![0u8; 8]);
                    }
                    black_box(comm.recv(peer, 4));
                }
            }
            best[3] = best[3].min(t.elapsed().as_secs_f64() / (batches * PAIRS as usize) as f64);
        }
        best
    });
    let best = per_rank[0];
    put(rows, "comm.p2p_roundtrip_us", best[0] * 1e6);
    put(rows, "comm.p2p_bw_gbs", (1u64 << 20) as f64 / best[1] / 1e9);
    put(rows, "comm.allreduce_us", best[2] * 1e6);
    put(rows, "comm.recv_any_us", best[3] * 1e6);
}

// ---- obs --------------------------------------------------------------------

fn span_ns(cfg: ObsConfig, spans: usize) -> f64 {
    let rec = Recorder::new(0, cfg);
    let secs = best_secs(1, || {
        for _ in 0..spans {
            drop(black_box(rec.span(SpanKind::Kernel)));
        }
    });
    secs / spans as f64 * 1e9
}

// ---- rebalance --------------------------------------------------------------

/// `n` blocks of an `e³` grid, three quarters of them piled on rank 0.
fn skewed_records(e: u32, ranks: u32) -> Vec<BlockRecord> {
    let n = e * e * e;
    (0..n)
        .map(|i| BlockRecord {
            id: u64::from(i),
            owner: if i < n * 3 / 4 { 0 } else { i % ranks },
            coords: [i % e, (i / e) % e, i / (e * e)],
            level: 0,
            cost: 1.0 + 0.3 * f64::from(i % 7),
            fluid_cells: 4096,
        })
        .collect()
}

fn rebalance_plans(rows: &mut Rows) {
    let opts = PlanOptions::default();
    let small = skewed_records(2, 2);
    put(
        rows,
        "rebalance.plan_8_us",
        1e6 * best_secs(200, || {
            black_box(plan_rebalance(small.clone(), 2, &opts));
        }),
    );
    let large = skewed_records(8, 8);
    put(
        rows,
        "rebalance.plan_512_us",
        1e6 * best_secs(2, || {
            black_box(plan_rebalance(large.clone(), 8, &opts));
        }),
    );
    let pool = RankPool::from_speeds(vec![1.0, 1.0, 1.0, 1.0, 4.0, 4.0, 4.0, 4.0]);
    put(
        rows,
        "rebalance.hetero_plan_512_us",
        1e6 * best_secs(2, || {
            black_box(plan_rebalance_hetero(large.clone(), &pool, opts.min_ratio));
        }),
    );
}

// ---- core: checkpoint, recovery, fan-out --------------------------------------

fn checkpoint_rows(rows: &mut Rows) {
    let mut pull = cavity_block(16, KernelChoice::Pull);
    let inplace = cavity_block(16, KernelChoice::InPlace);
    let cells = pull.shape.interior_cells() as f64;
    let data = save_block(&pull);
    put(rows, "core.checkpoint.bytes_per_cell_pull", data.len() as f64 / cells);
    put(rows, "core.checkpoint.bytes_per_cell_inplace", save_block(&inplace).len() as f64 / cells);
    let save = best_secs(20, || {
        black_box(save_block(&pull));
    });
    let restore = best_secs(20, || {
        restore_block(&mut pull, &data).expect("a block restores its own checkpoint");
    });
    put(rows, "core.checkpoint.save_mbs", data.len() as f64 / save / 1e6);
    put(rows, "core.checkpoint.restore_mbs", data.len() as f64 / restore / 1e6);
}

/// The crash-recover job template's scenario, run directly: what the
/// resilient schedule adds to a clean run, and what one rollback costs.
fn recovery_rows(quick: bool, rows: &mut Rows) {
    let scenario = Scenario::lid_driven_cavity(12, 2, VISCOSITY, 0.05);
    let steps = if quick { 12 } else { 40 };
    let resilient = |fault: Option<FaultConfig>| {
        let cfg = ResilienceConfig { checkpoint_every: 4, fault, ..ResilienceConfig::default() };
        run_distributed_resilient(&scenario, RANKS, 1, steps, &[], &cfg)
            .expect("the recovery budget covers one crash")
            .run
    };
    let (mut plain, mut checked, mut rollback) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let run = run_distributed_with(&scenario, RANKS, 1, steps, &[], DriverConfig::default());
        plain = plain.min(step_total(critical_rank(&run)));
        checked = checked.min(step_total(critical_rank(&resilient(None))));
        let crashed = resilient(Some(FaultConfig::new(11).with_crash(1, 6)));
        let recovery = crashed
            .ranks
            .iter()
            .filter_map(|r| r.obs.as_ref())
            .map(|o| o.total(SpanKind::Recovery))
            .fold(0.0, f64::max);
        rollback = rollback.min(recovery);
    }
    put(rows, "core.recovery.checkpoint_overhead_frac", checked / plain - 1.0);
    put(rows, "core.recovery.rollback_ms", rollback * 1e3);
}

/// What `threads_per_rank = 2` costs per block phase on the cavity-solo
/// job template (one rank, 8 blocks of 8³): the loop with two workers
/// against the loop with one, per fanned-out phase (boundary, sweep).
fn fanout_us(quick: bool) -> f64 {
    let scenario = Scenario::lid_driven_cavity(16, 2, VISCOSITY, 0.05);
    let steps = if quick { 20 } else { 200 };
    let mut best = [f64::INFINITY; 2];
    for _ in 0..5 {
        for threads in [1usize, 2] {
            let run =
                run_distributed_with(&scenario, 1, threads, steps, &[], DriverConfig::default());
            best[threads - 1] = best[threads - 1].min(step_total(critical_rank(&run)));
        }
    }
    (best[1] - best[0]) / (2 * steps) as f64 * 1e6
}

// ---- geometry, blockforest, partition ----------------------------------------

fn random_points(bb: &Aabb, n: usize) -> Vec<trillium_geometry::Vec3> {
    let mut rng = StdRng::seed_from_u64(7);
    let e = bb.extents();
    (0..n)
        .map(|_| {
            bb.min
                + vec3(
                    rng.gen_range(0.0..1.0) * e.x,
                    rng.gen_range(0.0..1.0) * e.y,
                    rng.gen_range(0.0..1.0) * e.z,
                )
        })
        .collect()
}

fn evals_per_s(sdf: &dyn SignedDistance, points: &[trillium_geometry::Vec3]) -> f64 {
    let secs = best_secs(1, || {
        black_box(points.iter().map(|&p| sdf.signed_distance(p)).sum::<f64>());
    });
    points.len() as f64 / secs
}

fn geometry_rows(tree: &VascularTree, forest: &SetupForest, dx: f64, quick: bool, rows: &mut Rows) {
    put(
        rows,
        "geometry.tree_generate_ms",
        1e3 * best_secs(1, || {
            black_box(vascular_tree());
        }),
    );
    let points = random_points(&tree.bounding_box(), if quick { 10_000 } else { 200_000 });
    put(rows, "geometry.tree_sdf_mevals_s", evals_per_s(tree, &points) / 1e6);

    let shape = Shape::cube(16);
    let config = VoxelizeConfig::default();
    let sample: Vec<_> = forest.blocks.iter().take(if quick { 8 } else { 40 }).collect();
    let secs = best_secs(1, || {
        for b in &sample {
            black_box(voxelize_block(tree, b.aabb.min, dx, shape, &config));
        }
    });
    put(
        rows,
        "geometry.voxelize_mcells_s",
        (sample.len() * shape.alloc_cells()) as f64 / secs / 1e6,
    );

    // The surface-mesh path a clinical pipeline would hand over: marching
    // tetrahedra at the example's cell size, then the mesh distance field.
    let cell = if quick { 0.6 } else { 0.25 };
    let t = Instant::now();
    let mesh = tree.to_mesh(cell);
    put(rows, "geometry.mesh_extract_s", t.elapsed().as_secs_f64());
    put(rows, "geometry.mesh_triangles", mesh.num_triangles() as f64);
    let t = Instant::now();
    let mesh_sdf = MeshSdf::new(mesh);
    put(rows, "geometry.mesh_sdf_build_s", t.elapsed().as_secs_f64());
    put(
        rows,
        "geometry.mesh_sdf_kevals_s",
        evals_per_s(&mesh_sdf, &points[..points.len() / 10]) / 1e3,
    );
}

fn forest_rows(tree: &VascularTree, forest: &SetupForest, dx: f64, rows: &mut Rows) {
    put(
        rows,
        "blockforest.from_domain_s",
        best_secs(1, || {
            black_box(SetupForest::from_domain(tree, dx, [16; 3]));
        }),
    );
    put(rows, "blockforest.blocks", forest.num_blocks() as f64);
    put(
        rows,
        "blockforest.fluid_fraction",
        forest.total_workload() / (forest.num_blocks() * 4096) as f64,
    );
    put(
        rows,
        "blockforest.file_roundtrip_ms",
        1e3 * best_secs(5, || {
            black_box(file::load(&file::save(forest)).expect("a saved forest loads"));
        }),
    );
    let (mut cut, mut imbalance) = (0.0, 0.0);
    put(
        rows,
        "partition.graph_balance_ms",
        1e3 * best_secs(1, || {
            let mut f = forest.clone();
            cut = graph_balance(&mut f, RANKS, 1);
            imbalance = f.imbalance();
        }),
    );
    put(rows, "partition.edge_cut", cut);
    put(rows, "partition.imbalance", imbalance);
}

// ---- the four groups ----------------------------------------------------------

/// Probes behind `cavity_dense`: host bandwidth and model, the dense
/// kernels, 96³ faces and block build, and the single-rank baseline.
/// `mlups_2rank` is the workload's own headline, the same 192³ problem.
pub fn cavity_dense_group(seed: u64, quick: bool, mlups_2rank: f64, rows: &mut Rows) {
    let (big, mid) = if quick { (32, 24) } else { (192, 96) };
    let bw = machine_bandwidth(quick, rows);
    dense_kernels(big, bw, rows);
    put(rows, "kernels.shell_split_ratio_96", shell_split_ratio(mid));

    let scenario = cavity_dense(seed, 2 * mid);
    let plan = plan_run(&scenario, RANKS);
    let lb = &plan.views[0].blocks[0];
    put(
        rows,
        "core.build_block_dense_ms",
        1e3 * best_secs(1, || {
            black_box(scenario.build_block(lb));
        }),
    );
    let mut block = scenario.build_block(lb);
    let (pack, unpack) = exchange_gbs(&mut block.src);
    put(rows, "comm.pack_face_96_gbs", pack);
    put(rows, "comm.unpack_face_96_gbs", unpack);
    drop(block);

    // The plain single-threaded run of the same problem.
    let run = run_distributed_with(&cavity_dense(seed, big), 1, 1, 3, &[], DriverConfig::default());
    let mlups_1rank = run.total_stats().fluid_cells as f64 / step_total(critical_rank(&run)) / 1e6;
    put(rows, "core.driver.mlups_1rank", mlups_1rank);
    put(rows, "core.driver.mlups_2rank", mlups_2rank);
    put(rows, "core.driver.parallel_eff_2r", mlups_2rank / (2.0 * mlups_1rank));
}

/// Probes behind `cavity_smallblocks`: 8³ faces, the message runtime,
/// the recorder, and forest balancing/distribution at 4096 blocks.
pub fn cavity_smallblocks_group(quick: bool, rows: &mut Rows) {
    let mut block = cavity_block(8, KernelChoice::Pull);
    let (pack, unpack) = exchange_gbs(&mut block.src);
    put(rows, "comm.pack_face_8_gbs", pack);
    put(rows, "comm.unpack_face_8_gbs", unpack);
    put(rows, "comm.copy_face_local_8_gbs", copy_face_local_gbs(8));
    comm_runtime(quick, rows);
    put(rows, "kernels.shell_split_ratio_8", shell_split_ratio(8));

    let spans = if quick { 20_000 } else { 200_000 };
    put(rows, "obs.span_on_ns", span_ns(ObsConfig::default(), spans));
    put(rows, "obs.span_off_ns", span_ns(ObsConfig::off(), spans));
    put(rows, "obs.trace_event_ns", span_ns(ObsConfig::trace(), spans));

    let e = if quick { 8 } else { 16 };
    let edge = (8 * e) as f64;
    let forest = SetupForest::uniform(
        Aabb::new(vec3(0.0, 0.0, 0.0), vec3(edge, edge, edge)),
        [e; 3],
        [8; 3],
    );
    let mut balanced = forest.clone();
    put(
        rows,
        "blockforest.morton_balance_ms",
        1e3 * best_secs(1, || {
            balanced = forest.clone();
            morton_balance(&mut balanced, RANKS);
        }),
    );
    put(
        rows,
        "blockforest.distribute_ms",
        1e3 * best_secs(1, || {
            black_box(distribute(&balanced));
        }),
    );
}

/// Probes behind `vascular_sparse`: geometry, forest and partitioner on
/// the workload's own tree, carved-block build, sparse kernels and faces.
pub fn vascular_sparse_group(seed: u64, quick: bool, rows: &mut Rows) {
    let tree = Arc::new(vascular_tree());
    let dx = vascular_dx(&tree) * if quick { 2.0 } else { 1.0 };
    let setup = vascular_domain(tree.clone(), dx, lid_velocity(seed));
    geometry_rows(&tree, &setup.forest, dx, quick, rows);
    forest_rows(&tree, &setup.forest, dx, rows);

    // Every block of the run, asked for the in-place scheme: the build
    // cost per carved block and how many silently keep the pull scheme.
    let scenario = setup.scenario.with_kernel(KernelChoice::InPlace);
    let t = Instant::now();
    let mut blocks: Vec<BlockSim> = setup
        .views
        .iter()
        .flat_map(|v| v.blocks.iter())
        .map(|lb| scenario.build_block(lb))
        .collect();
    put(rows, "core.build_block_carved_ms", 1e3 * t.elapsed().as_secs_f64() / blocks.len() as f64);
    put(
        rows,
        "kernels.fallback_pull_blocks",
        blocks.iter().filter(|b| b.fell_back_to_pull()).count() as f64,
    );
    blocks.sort_by_key(BlockSim::fluid_cells);
    let median = blocks.len() / 2;
    let (pack, unpack) = sparse_exchange_gbs(&mut blocks[median]);
    put(rows, "comm.pack_face_sparse_16_gbs", pack);
    put(rows, "comm.unpack_face_sparse_16_gbs", unpack);
    drop(blocks);

    put(rows, "kernels.shell_split_ratio_16", shell_split_ratio(16));
    sparse_kernels(if quick { 32 } else { 192 }, rows);
}

/// Probes behind `jobs_mix`: the per-job fixed costs of the templates.
pub fn jobs_mix_group(quick: bool, rows: &mut Rows) {
    put(rows, "core.driver.fanout_us", fanout_us(quick));
    checkpoint_rows(rows);
    recovery_rows(quick, rows);
    rebalance_plans(rows);
}
