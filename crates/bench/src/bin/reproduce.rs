//! The experiment harness: the paper's figures and tables (the mapping
//! is in DESIGN.md §4), the ablations and the physics validation gate,
//! one named entry each:
//!
//! ```text
//! reproduce [NAME …] [--json] [--full] [--trace PATH] [--fault MODE] [--seed N] [--jobs N]
//! ```
//!
//! With no name the twelve figures and tables run in paper order; the
//! ablations and the validation matrix run by name. Each entry prints its
//! table; `--json` follows it with one report line stamped
//! `"bin": NAME`, and `--full` runs at paper scale (slow) instead of the
//! workstation default. An entry whose contract fails (the job soak, the
//! validation matrix) makes the process exit 1 after its report; an
//! unknown name or flag exits 2.

use serde_json::json;
use trillium_bench::validation;
use trillium_bench::{
    ablations, bench_relaxation, emit_json, measure_mlups, section, Failed, HarnessArgs, Outcome,
};
use trillium_blockforest::{distribute, file, morton_balance, SetupForest};
use trillium_core::prelude::*;
use trillium_field::{AosPdfField, PdfField, Shape};
use trillium_geometry::vec3::vec3;
use trillium_geometry::{Aabb, VascularTree};
use trillium_kernels as kernels;
use trillium_lattice::{Relaxation, UnitConverter, D3Q19};
use trillium_machine::MachineSpec;
use trillium_perfmodel::{bytes_per_lup, roofline_mlups, EcmModel};
use trillium_scaling::fig7::Fig7Config;
use trillium_scaling::{fig1, fig3, fig4, fig5, fig6, fig7, fig8, headline, paper_tree};

/// One entry: its name and the function that prints its table and
/// returns its JSON payload.
type Entry = (&'static str, fn(&HarnessArgs) -> Outcome);

/// The figures and tables, in paper order: what runs when no name is
/// given.
const FIGURES: usize = 12;

/// Every entry: the figures and tables first, in paper order, then the
/// ablations and the validation gate.
const ENTRIES: [Entry; FIGURES + 7] = [
    ("fig1_partition", fig1_partition),
    ("fig2_two_stage", fig2_two_stage),
    ("tab_forestfile", tab_forestfile),
    ("tab_roofline", tab_roofline),
    ("fig3_kernels", fig3_kernels),
    ("fig4_ecm", fig4_ecm),
    ("fig5_smt", fig5_smt),
    ("fig6_weak_dense", fig6_weak_dense),
    ("tab_headline", tab_headline),
    ("fig7_weak_vascular", fig7_weak_vascular),
    ("fig8_strong_vascular", fig8_strong_vascular),
    ("tab_vascular_headline", tab_vascular_headline),
    ("ablation_balance", ablations::balance),
    ("ablation_jobs", ablations::jobs),
    ("ablation_overlap", ablations::overlap),
    ("ablation_rebalance", ablations::rebalance),
    ("ablation_resilience", ablations::resilience),
    ("ablation_sparse_comm", ablations::sparse_comm),
    ("validation_matrix", validation::matrix),
];

/// Parses the command line (without the program name) and looks up the
/// entries it names, in the order given; the twelve figures when it
/// names none. An unknown name or flag, or a value flag without its
/// value, is an error that lists the valid names.
fn resolve(args: &[String]) -> Result<(HarnessArgs, Vec<Entry>), String> {
    let usage = |e: String| {
        let valid: Vec<&str> = ENTRIES.iter().map(|(n, _)| *n).collect();
        format!("{e}; valid names: {}", valid.join(" "))
    };
    let args = HarnessArgs::parse(args.iter().cloned()).map_err(usage)?;
    if args.names.is_empty() {
        return Ok((args, ENTRIES[..FIGURES].to_vec()));
    }
    let entries = args
        .names
        .iter()
        .map(|name| {
            ENTRIES
                .iter()
                .find(|(n, _)| n == name)
                .copied()
                .ok_or_else(|| usage(format!("unknown name `{name}`")))
        })
        .collect::<Result<_, _>>()?;
    Ok((args, entries))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, entries) = resolve(&argv).unwrap_or_else(|e| {
        eprintln!("reproduce: {e}");
        std::process::exit(2);
    });
    let mut failed = false;
    for (name, entry) in entries {
        let (payload, failure) = match entry(&args) {
            Ok(payload) => (payload, None),
            Err(Failed { payload, reason }) => (payload, Some(reason)),
        };
        if args.json {
            emit_json(name, payload);
        }
        if let Some(reason) = failure {
            eprintln!("reproduce: {name}: {reason}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Fig 1 — domain partitioning of the coronary tree with a target of one
/// block per process: nodeboard scale (512) and, with `--full`, the whole
/// JUQUEEN (458,752). Paper values: 485 blocks at 512 processes,
/// 458,184 blocks at 458,752 processes.
fn fig1_partition(&HarnessArgs { full, .. }: &HarnessArgs) -> Outcome {
    let tree = paper_tree();
    section("Fig 1: one block per process partitionings of the coronary tree");
    let mut targets = vec![512usize, 4096, 32_768];
    if full {
        targets.push(458_752);
    }
    println!(
        "{:<12} {:>10} {:>8} {:>12}   (paper: 512 -> 485 [94.7 %]; 458752 -> 458184 [99.9 %])",
        "processes", "blocks", "fill %", "dx"
    );
    let mut rows = Vec::new();
    for t in targets {
        let r = fig1::fig1_point(&tree, 32, t, 4);
        println!("{:<12} {:>10} {:>8.1} {:>12.5}", r.processes, r.blocks, 100.0 * r.fill, r.dx);
        rows.push(r);
    }

    // ASCII rendition of the Fig 1 content: a mid-depth slice of the
    // candidate root grid, showing which blocks the partitioning keeps.
    section("partition slice (z = mid): '#' kept block, '.' dropped");
    let slice = fig1::fig1_point(&tree, 32, 2048, 4);
    render_slice(&tree, slice.dx);
    Ok(json!(rows))
}

fn render_slice(tree: &VascularTree, dx: f64) {
    use std::collections::HashSet;
    let forest = SetupForest::from_domain_sampled(tree, dx, [32, 32, 32], 4);
    let kept: HashSet<(i64, i64)> = forest
        .blocks
        .iter()
        .filter(|b| b.coords[2] == forest.roots[2] as i64 / 2)
        .map(|b| (b.coords[0], b.coords[1]))
        .collect();
    let (rx, ry) = (forest.roots[0].min(72), forest.roots[1]);
    for y in (0..ry as i64).rev() {
        let row: String =
            (0..rx as i64).map(|x| if kept.contains(&(x, y)) { '#' } else { '.' }).collect();
        println!("{row}");
    }
    println!("({} of {} candidate blocks in this slice belong to the domain)", kept.len(), rx * ry);
}

/// Fig 2 — the two-stage domain partitioning: "block division and
/// subsequent grid generation".
///
/// The figure's content is the framework's central memory argument
/// (§2.2): stage 1 partitions the domain into *blocks* (setup cost and
/// memory scale with the block count); only stage 2 — executed per rank,
/// after distribution — materializes the *cell grids* of locally owned
/// blocks. The global grid never exists in any single memory: a domain
/// whose full grid would need terabytes is set up in megabytes, and each
/// rank allocates only its own share.
fn fig2_two_stage(&HarnessArgs { full, .. }: &HarnessArgs) -> Outcome {
    // Stage 1 at (near-)paper scale: the JUQUEEN weak-scaling domain.
    let (roots, cells) = if full {
        ([128usize, 96, 96], [80usize, 80, 80]) // ~1.2M blocks
    } else {
        ([48usize, 32, 32], [80usize, 80, 80])
    };
    let nblocks = roots[0] * roots[1] * roots[2];
    let total_cells = nblocks as f64 * (cells[0] * cells[1] * cells[2]) as f64;

    section("stage 1: block division (global, cheap)");
    let domain =
        Aabb::new(vec3(0.0, 0.0, 0.0), vec3(roots[0] as f64, roots[1] as f64, roots[2] as f64));
    let t0 = std::time::Instant::now();
    let mut forest = SetupForest::uniform(domain, roots, cells);
    let procs = (nblocks / 4) as u32;
    morton_balance(&mut forest, procs);
    let setup_time = t0.elapsed();
    let block_bytes = nblocks * std::mem::size_of::<trillium_blockforest::SetupBlock>();
    let grid_bytes = total_cells * 19.0 * 8.0 * 2.0; // two PDF fields
    println!(
        "domain: {} blocks of {}^3 cells = {:.3e} cells total",
        nblocks, cells[0], total_cells
    );
    println!(
        "stage-1 memory: {:.1} MiB of block metadata (vs {:.1} TiB if the grid were global)",
        block_bytes as f64 / (1 << 20) as f64,
        grid_bytes / (1u64 << 40) as f64
    );
    println!("stage-1 wall time: {:.2?} (balanced over {procs} processes)", setup_time);

    section("stage 2: grid generation (per rank, local only)");
    let views = distribute(&forest);
    let v = &views[0];
    let local_cells: f64 = v.blocks.len() as f64 * (cells[0] * cells[1] * cells[2]) as f64;
    println!(
        "rank 0 owns {} of {} blocks -> would allocate {:.1} MiB of PDF data ({:.6} % of the global grid)",
        v.blocks.len(),
        nblocks,
        local_cells * 19.0 * 8.0 * 2.0 / (1 << 20) as f64,
        100.0 * local_cells / total_cells
    );
    println!(
        "rank 0 forest knowledge: {} units (own blocks + remote links) — independent of the machine size",
        v.knowledge_size()
    );
    println!();
    println!("paper: \"the memory usage of a particular process only depends on the");
    println!("number of blocks assigned to this process, and not on the size of the");
    println!("entire simulation\" (§2.2) — which is what makes 10^12-cell domains");
    println!("possible on 2 GiB/core machines.");

    Ok(json!({
        "blocks": nblocks,
        "cells_total": total_cells,
        "procs": procs,
        "stage1_seconds": setup_time.as_secs_f64(),
        "stage1_block_metadata_bytes": block_bytes,
        "global_grid_bytes": grid_bytes,
        "rank0_blocks": v.blocks.len(),
        "rank0_cells": local_cells,
        "rank0_knowledge_units": v.knowledge_size(),
    }))
}

/// §2.2 table — block-structure file sizes: the minimal-byte-width binary
/// format at several scales, reproducing the paper's claims ("2 bytes per
/// rank for up to 65,536 processes"; "half a million processes ... about
/// 40 MiB" — ours is smaller because only ID + rank + workload are
/// stored; see EXPERIMENTS.md).
fn tab_forestfile(&HarnessArgs { full, .. }: &HarnessArgs) -> Outcome {
    section("Block-structure file format (§2.2)");
    println!(
        "{:<12} {:<12} {:>12} {:>14} {:>10}",
        "blocks", "processes", "file bytes", "bytes/block", "load ok"
    );
    let mut sizes = vec![(8usize, 8u32), (4096, 4096), (32_768, 32_768), (262_144, 262_144)];
    if full {
        sizes.push((512_000, 512_000));
    }
    let mut rows = Vec::new();
    for (blocks, procs) in sizes {
        let n = (blocks as f64).cbrt().round() as usize;
        let e = n as f64;
        let mut f = SetupForest::uniform(
            Aabb::new(vec3(0.0, 0.0, 0.0), vec3(e, e, e)),
            [n, n, n],
            [100; 3],
        );
        morton_balance(&mut f, procs);
        let data = file::save(&f);
        let ok = file::load(&data).map(|g| g.num_blocks() == f.num_blocks()).unwrap_or(false);
        println!(
            "{:<12} {:<12} {:>12} {:>14.1} {:>10}",
            f.num_blocks(),
            procs,
            data.len(),
            data.len() as f64 / f.num_blocks() as f64,
            ok
        );
        rows.push(json!({
            "blocks": f.num_blocks(),
            "processes": procs,
            "file_bytes": data.len(),
            "bytes_per_block": data.len() as f64 / f.num_blocks() as f64,
            "round_trip_ok": ok,
        }));
    }
    println!();
    println!("rank byte-width examples: 65,536 processes -> 2 bytes; 65,537 -> 3 bytes");
    println!("byte widths: {} / {}", file::byte_width(65_535), file::byte_width(65_536));
    Ok(json!(rows))
}

/// §4.1 table — roofline arithmetic for both machines: STREAM vs
/// LBM-pattern bandwidth and the resulting MLUPS bounds. The host's
/// figures are the benchmark's `machine.copy_bw_gibs` and
/// `machine.lbm_bw_gibs` rows.
fn tab_roofline(_: &HarnessArgs) -> Outcome {
    section("Roofline inputs and bounds (paper §4.1)");
    println!("bytes per D3Q19 lattice update (write-allocate): {}", bytes_per_lup(19));
    println!();
    println!(
        "{:<12} {:>14} {:>16} {:>18}",
        "machine", "STREAM GiB/s", "LBM-pattern GiB/s", "roofline MLUPS"
    );
    let mut rows = Vec::new();
    for m in [MachineSpec::supermuc(), MachineSpec::juqueen()] {
        let roof = roofline_mlups(m.lbm_bw_gib, 19);
        println!("{:<12} {:>14.1} {:>16.1} {:>18.1}", m.name, m.stream_bw_gib, m.lbm_bw_gib, roof);
        rows.push(json!({
            "machine": m.name,
            "stream_gib": m.stream_bw_gib,
            "lbm_gib": m.lbm_bw_gib,
            "roofline_mlups": roof,
        }));
    }
    println!();
    println!("paper: 37.3 GiB/s -> 87.8 MLUPS (SuperMUC socket); 32.4 GiB/s -> 76.2 MLUPS (JUQUEEN node)");
    Ok(json!({ "bytes_per_lup": bytes_per_lup(19), "machines": rows }))
}

/// Fig 3 — single-node kernel-ladder comparison.
///
/// Prints (a) the model series for a SuperMUC socket and a JUQUEEN node
/// (calibrated tier models), and (b) *measured* MLUPS of the real Rust
/// kernels of this repository on the host, for all tiers × SRT/TRT.
/// The paper's qualitative claims to check: generic < specialized < SIMD,
/// SIMD SRT ≈ SIMD TRT, and only the SIMD tier approaching the host's
/// bandwidth roofline (the benchmark's `perfmodel.roofline_mlups` row,
/// from its `machine.*_bw_gibs` measurements).
fn fig3_kernels(&HarnessArgs { full, .. }: &HarnessArgs) -> Outcome {
    let n = if full { 128 } else { 64 };
    let reps = if full { 10 } else { 4 };

    section("Fig 3 (model): SuperMUC socket");
    let sm = fig3::fig3_series(&MachineSpec::supermuc());
    print_fig3_model(&sm);
    section("Fig 3 (model): JUQUEEN node");
    let jq = fig3::fig3_series(&MachineSpec::juqueen());
    print_fig3_model(&jq);

    section(&format!("Fig 3 (measured on host): {n}^3 cells, single core"));
    let shape = Shape::cube(n);
    let rel_trt = bench_relaxation();
    let rel_srt = Relaxation::srt_from_tau(rel_trt.tau());

    // Tier 1: generic textbook kernel (AoS).
    let mut aos_src = AosPdfField::<D3Q19>::new(shape);
    let mut aos_dst = AosPdfField::<D3Q19>::new(shape);
    aos_src.fill_equilibrium(1.0, [0.02, 0.01, -0.01]);
    let gen_srt = measure_mlups(
        || kernels::generic::stream_collide_srt(&aos_src, &mut aos_dst, rel_srt),
        reps,
    );
    let gen_trt = measure_mlups(
        || kernels::generic::stream_collide_trt(&aos_src, &mut aos_dst, rel_trt),
        reps,
    );

    // Tier 2: D3Q19-specialized kernel (AoS).
    let spec_srt =
        measure_mlups(|| kernels::d3q19::stream_collide_srt(&aos_src, &mut aos_dst, rel_srt), reps);
    let spec_trt =
        measure_mlups(|| kernels::d3q19::stream_collide_trt(&aos_src, &mut aos_dst, rel_trt), reps);

    // Tier 3: the SoA split-loop row body, portable and AVX2+FMA instance.
    let (soa_src, mut soa_dst) = trillium_bench::bench_fields(n);
    let soa_srt =
        measure_mlups(|| kernels::soa::stream_collide_srt(&soa_src, &mut soa_dst, rel_srt), reps);
    let soa_trt =
        measure_mlups(|| kernels::soa::stream_collide_trt(&soa_src, &mut soa_dst, rel_trt), reps);
    let avx_srt =
        measure_mlups(|| kernels::avx::stream_collide_srt(&soa_src, &mut soa_dst, rel_srt), reps);
    let avx_trt =
        measure_mlups(|| kernels::avx::stream_collide_trt(&soa_src, &mut soa_dst, rel_trt), reps);
    // The backend the "avx" entry point actually executed: without
    // AVX2+FMA it runs the portable instance, and the series must say so
    // instead of crediting an instruction set that never ran.
    let resolved = kernels::BackendKind::Avx2.resolve();

    // Tier 4: in-place AA-pattern update, single buffer. The kernels
    // never flip the storage parity themselves (the block driver owns
    // that), so the bench alternates it to exercise both sweep kinds.
    let (mut aa, _) = trillium_bench::bench_fields(n);
    let inplace_srt = measure_mlups(
        || {
            let s = kernels::inplace::stream_collide_srt(&mut aa, rel_srt);
            let p = aa.parity();
            aa.set_parity(!p);
            s
        },
        reps,
    );
    let inplace_trt = measure_mlups(
        || {
            let s = kernels::inplace::stream_collide_trt(&mut aa, rel_trt);
            let p = aa.parity();
            aa.set_parity(!p);
            s
        },
        reps,
    );

    println!("{:<28} {:>10} {:>10}", "kernel", "SRT", "TRT");
    println!("{:<28} {:>10.1} {:>10.1}", "Generic (AoS)", gen_srt, gen_trt);
    println!("{:<28} {:>10.1} {:>10.1}", "D3Q19 specialized (AoS)", spec_srt, spec_trt);
    println!("{:<28} {:>10.1} {:>10.1}", "SoA split-loop, portable", soa_srt, soa_trt);
    println!(
        "{:<28} {:>10.1} {:>10.1}  (avx2+fma available: {}, ran as: {})",
        "SoA split-loop, AVX2+FMA",
        avx_srt,
        avx_trt,
        kernels::avx::available(),
        resolved.label()
    );
    println!("{:<28} {:>10.1} {:>10.1}", "In-place AA (single buffer)", inplace_srt, inplace_trt);

    // ECM prediction for the in-place tier: the traffic term drops from
    // 57 to 38 cache lines per unit, so the model predicts the speedup
    // before the measurement confirms it.
    let ecm = EcmModel::supermuc_trt_simd(2.7);
    let predicted_core = ecm.inplace_speedup(1);
    let predicted_sat = ecm.inplace_speedup(16);
    // Against the pull sweep of the same instruction set: the in-place
    // entry points run the AVX2+FMA instance wherever `avx_trt` does.
    let measured_speedup = inplace_trt / avx_trt;
    println!(
        "in-place/pull TRT speedup: measured {measured_speedup:.2}x vs SoA pull ({}) | \
         ECM predicts {predicted_core:.2}x single-core, {predicted_sat:.2}x saturated \
         (57 -> 38 cachelines/unit)",
        resolved.label()
    );

    Ok(json!({
        "model_supermuc": sm,
        "model_juqueen": jq,
        "host": {
            "generic": {"srt": gen_srt, "trt": gen_trt},
            "d3q19": {"srt": spec_srt, "trt": spec_trt},
            "soa": {"srt": soa_srt, "trt": soa_trt},
            "avx": {
                "srt": avx_srt,
                "trt": avx_trt,
                "avx_available": kernels::avx::available(),
                "resolved_backend": resolved.label(),
            },
            "inplace": {
                "srt": inplace_srt,
                "trt": inplace_trt,
                "measured_speedup_vs_soa_trt": measured_speedup,
                "ecm_predicted_speedup_core": predicted_core,
                "ecm_predicted_speedup_saturated": predicted_sat,
            },
        },
    }))
}

fn print_fig3_model(rows: &[fig3::Fig3Row]) {
    let max_cores = rows.iter().map(|r| r.cores).max().unwrap();
    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "cores", "genS", "genT", "d19S", "d19T", "simdS", "simdT"
    );
    for c in 1..=max_cores {
        let at = |tier: &str, coll: &str| {
            rows.iter()
                .find(|r| r.cores == c && r.tier == tier && r.collision == coll)
                .map(|r| r.mlups)
                .unwrap_or(0.0)
        };
        println!(
            "{:<10} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
            c,
            at("Generic", "SRT"),
            at("Generic", "TRT"),
            at("D3Q19", "SRT"),
            at("D3Q19", "TRT"),
            at("SIMD", "SRT"),
            at("SIMD", "TRT"),
        );
    }
}

/// Fig 4 — ECM model of the TRT kernel at 2.7 GHz and 1.6 GHz, plus the
/// host-measured saturation point for comparison.
fn fig4_ecm(&HarnessArgs { full, .. }: &HarnessArgs) -> Outcome {
    section("Fig 4: ECM model, SuperMUC socket");
    let rows = fig4::fig4_series();
    println!("{:<8} {:>12} {:>12}", "cores", "2.7 GHz", "1.6 GHz");
    for c in 1..=8u32 {
        let at = |f: f64| rows.iter().find(|r| r.clock_ghz == f && r.cores == c).unwrap().mlups;
        println!("{:<8} {:>12.1} {:>12.1}", c, at(2.7), at(1.6));
    }
    println!();
    println!(
        "performance retention at 1.6 GHz: {:.1} %  (paper: 93 %, at 25 % less energy)",
        100.0 * fig4::performance_retention(1.6, 2.7)
    );

    // The in-place (AA-pattern) traffic term: same in-core work, 38
    // instead of 57 cache lines per unit. The model predicts the
    // update-scheme speedup before fig3 measures it.
    let ecm = EcmModel::supermuc_trt_simd(2.7);
    println!();
    println!(
        "in-place traffic term: {} -> {} cachelines/unit, predicted speedup \
         {:.2}x (1 core) / {:.2}x (saturated socket)",
        trillium_perfmodel::CACHELINES_PER_UNIT,
        trillium_perfmodel::CACHELINES_PER_UNIT_INPLACE,
        ecm.inplace_speedup(1),
        ecm.inplace_speedup(8),
    );

    // Host point: the measured AVX TRT kernel (single core, fixed clock).
    let (src, mut dst) = trillium_bench::bench_fields(if full { 128 } else { 64 });
    let rel = bench_relaxation();
    let host = measure_mlups(|| kernels::avx::stream_collide_trt(&src, &mut dst, rel), 4);
    println!("host AVX TRT kernel (1 core, host clock): {host:.1} MLUPS");

    Ok(json!({
        "model": rows,
        "retention": fig4::performance_retention(1.6, 2.7),
        "host_mlups": host,
        "inplace_predicted_speedup_core": ecm.inplace_speedup(1),
        "inplace_predicted_speedup_saturated": ecm.inplace_speedup(8),
    }))
}

/// Fig 5 — SMT levels of the optimized TRT kernel on a JUQUEEN node
/// (model series; the host has no 4-way SMT A2 cores, so there is no
/// measured analogue — see EXPERIMENTS.md).
fn fig5_smt(_: &HarnessArgs) -> Outcome {
    section("Fig 5: SMT scaling on a JUQUEEN node (model)");
    let rows = fig5::fig5_series();
    println!("{:<8} {:>10} {:>10} {:>10}", "cores", "1-way", "2-way", "4-way");
    for c in 1..=16u32 {
        let at = |w: u32| rows.iter().find(|r| r.ways == w && r.cores == c).unwrap().mlups;
        println!("{:<8} {:>10.1} {:>10.1} {:>10.1}", c, at(1), at(2), at(4));
    }
    println!();
    println!("paper: 4-way SMT is required to saturate the memory interface (76.2 MLUPS roofline)");
    Ok(json!(rows))
}

/// Fig 6 — weak scaling on dense regular domains for both machines:
/// MLUPS/core and MPI share per configuration and core count (model),
/// plus a real distributed lid-driven-cavity run on the host for the
/// functional path (ranks as threads).
fn fig6_weak_dense(&HarnessArgs { full, .. }: &HarnessArgs) -> Outcome {
    let mut all = Vec::new();
    for machine in [MachineSpec::supermuc(), MachineSpec::juqueen()] {
        let cells = fig6::paper_cells_per_core(&machine);
        section(&format!("Fig 6: weak scaling on {} ({} cells/core)", machine.name, cells));
        let rows = fig6::fig6_series(&machine, cells);
        for config in fig6::paper_configs(&machine) {
            println!("-- {} --", config.label());
            println!("{:<12} {:>14} {:>12}", "cores", "MLUPS/core", "MPI %");
            for r in rows.iter().filter(|r| r.config == config.label()) {
                println!(
                    "{:<12} {:>14.2} {:>12.1}",
                    r.cores,
                    r.mlups_per_core,
                    100.0 * r.mpi_fraction
                );
            }
        }
        all.extend(rows);
    }

    section("real distributed run on host (ranks = threads)");
    let (n, b, procs, steps) = if full { (96, 4, 8, 20) } else { (48, 2, 4, 10) };
    let scenario = Scenario::lid_driven_cavity(n, b, 0.05, 0.05);
    let r = run_distributed(&scenario, procs, 1, steps);
    let stats = r.total_stats();
    let total_kernel: f64 = r.ranks.iter().map(|x| x.kernel_time).sum();
    println!(
        "{procs} ranks x {steps} steps on {n}^3 cells: {:.1} MLUPS aggregate (kernel only), comm share {:.1} %, mass drift {:.1e}",
        stats.mlups(total_kernel / procs as f64),
        100.0 * r.comm_fraction(),
        r.mass_drift()
    );
    Ok(json!(all))
}

/// §4.2 headline numbers: paper vs. model reproduction.
fn tab_headline(_: &HarnessArgs) -> Outcome {
    section("§4.2 headline numbers: paper vs reproduction");
    println!("{:<38} {:>12} {:>12} {:>8}", "quantity", "paper", "ours", "ratio");
    let rows = headline::headlines();
    for r in &rows {
        println!("{:<38} {:>12.1} {:>12.1} {:>8.2}", r.quantity, r.paper, r.ours, r.ours / r.paper);
    }
    Ok(json!(rows))
}

/// Fig 7 — weak scaling on the synthetic coronary tree: real domain
/// partitionings per core count; MFLUPS/core and fluid fraction.
///
/// Default scale is workstation-friendly (2^4 … 2^12 cores with reduced
/// block edges); `--full` uses the paper's block sizes and core ranges
/// (slow: hundreds of thousands of blocks are partitioned geometrically).
fn fig7_weak_vascular(&HarnessArgs { full, .. }: &HarnessArgs) -> Outcome {
    let tree = paper_tree();
    let mut all = Vec::new();
    for machine in [MachineSpec::supermuc(), MachineSpec::juqueen()] {
        let (cfg, range) = if full {
            let top = if machine.name == "SuperMUC" { 17 } else { 19 };
            (Fig7Config::paper(&machine), (4u32, top))
        } else {
            (
                Fig7Config {
                    block_edge: if machine.name == "SuperMUC" { 40 } else { 24 },
                    ..Fig7Config::paper(&machine)
                },
                (4u32, 12),
            )
        };
        section(&format!(
            "Fig 7: vascular weak scaling on {} (blocks {}^3)",
            machine.name, cfg.block_edge
        ));
        println!(
            "{:<10} {:>9} {:>14} {:>14} {:>12}",
            "cores", "blocks", "MFLUPS/core", "fluid frac", "dx"
        );
        let rows = fig7::fig7_series(&tree, &machine, &cfg, range);
        for r in &rows {
            println!(
                "{:<10} {:>9} {:>14.3} {:>14.3} {:>12.5}",
                r.cores, r.blocks, r.mflups_per_core, r.fluid_fraction, r.dx
            );
        }
        all.extend(rows);
    }
    println!();
    println!("paper shape: MFLUPS/core and fluid fraction RISE with the core count");
    println!("(better geometric fit of more, smaller blocks), with a late decline on");
    println!("SuperMUC from multi-island communication.");
    Ok(json!(all))
}

/// The strong-scaling configuration of Fig 8 and §4.3: four threads per
/// process, block edge swept per core count.
fn strong_config(cores_per_proc: u32) -> Fig7Config {
    Fig7Config { threads: 4, cores_per_proc, samples: 4, coverage_sample_blocks: 5, block_edge: 0 }
}

/// Fig 8 — strong scaling on the synthetic coronary tree at two fixed
/// resolutions (the paper's 0.1 mm / 2.1 M fluid cells and 0.05 mm /
/// 16.9 M fluid cells), sweeping block sizes per core count and reporting
/// the best MFLUPS/core and time steps per second.
fn fig8_strong_vascular(&HarnessArgs { full, .. }: &HarnessArgs) -> Outcome {
    let tree = paper_tree();
    let targets: Vec<(&str, f64)> = if full {
        vec![("0.1 mm analogue (2.1 M fluid cells)", 2.1e6), ("0.05 mm analogue (16.9 M)", 16.9e6)]
    } else {
        vec![("coarse (0.4 M fluid cells)", 4e5), ("fine (3.2 M fluid cells)", 3.2e6)]
    };
    let edges = fig8::paper_edges();
    let mut all = Vec::new();

    for (label, fluid) in &targets {
        let dx = fig8::dx_for_fluid_cells(&tree, *fluid, 0.2);
        for machine in [MachineSpec::supermuc(), MachineSpec::juqueen()] {
            let supermuc = machine.name == "SuperMUC";
            let cfg = strong_config(if supermuc { 4 } else { 1 });
            let range = if supermuc { (4u32, 15) } else { (9u32, 18) };
            section(&format!("Fig 8: strong scaling, {label}, {}", machine.name));
            println!(
                "{:<10} {:>14} {:>14} {:>10} {:>12}",
                "cores", "MFLUPS/core", "steps/s", "edge", "blocks/proc"
            );
            let rows = fig8::fig8_series(&tree, &machine, &cfg, dx, range, &edges);
            for r in &rows {
                println!(
                    "{:<10} {:>14.3} {:>14.1} {:>10} {:>12.1}",
                    r.cores, r.mflups_per_core, r.timesteps_per_s, r.best_edge, r.blocks_per_proc
                );
            }
            all.extend(rows);
        }
    }
    println!();
    println!("paper shape: steps/s rises with cores; SuperMUC sustains efficiency to");
    println!("larger scales than JUQUEEN (framework overhead on slow in-order cores);");
    println!("optimal block size shrinks with the core count.");
    Ok(json!(all))
}

/// §4.3 / §5 headline numbers for the vascular experiments: the
/// trillion-fluid-cell discretization, time-step lengths at the finest
/// resolution, and the strong-scaling peak rates.
fn tab_vascular_headline(&HarnessArgs { full, .. }: &HarnessArgs) -> Outcome {
    let tree = paper_tree();

    section("time-step arithmetic at the paper's finest resolution (§4.3)");
    let uc = UnitConverter::from_velocity_limit(1.276e-6, 0.2, 0.1);
    println!(
        "dx = 1.276 um, u_max = 0.2 m/s, lattice limit 0.1 -> dt = {:.3} us (paper: 0.64 us)",
        uc.dt * 1e6
    );

    section("largest vascular weak-scaling point (model; --full for paper scale)");
    let m = MachineSpec::juqueen();
    let cfg = if full {
        Fig7Config::paper(&m)
    } else {
        Fig7Config { block_edge: 24, ..Fig7Config::paper(&m) }
    };
    let cores: u64 = if full { 458_752 } else { 1 << 12 };
    let row = fig7::fig7_point(&tree, &m, &cfg, cores);
    let blocks = row.blocks;
    let block_cells = (cfg.block_edge as u64).pow(3);
    let total_fluid = row.fluid_fraction * (blocks as u64 * block_cells) as f64;
    println!(
        "{} cores: {} blocks of {}^3, fluid fraction {:.3}, total fluid cells {:.3e}",
        cores, blocks, cfg.block_edge, row.fluid_fraction, total_fluid
    );
    println!("paper (full machine): 1,033,660,569,847 fluid cells at 1.276 um, 1.25 time steps/s");
    let steps_per_s = row.mflups_per_core * cores as f64 * 1e6 / total_fluid;
    println!("modeled time steps/s at this point: {steps_per_s:.2}");

    section("strong-scaling peak rates (§4.3/§5)");
    let sm = MachineSpec::supermuc();
    let dx = fig8::dx_for_fluid_cells(&tree, if full { 2.1e6 } else { 4e5 }, 0.2);
    let peak_cores: u64 = if full { 32_768 } else { 4096 };
    let peak =
        fig8::fig8_point(&tree, &sm, &strong_config(4), dx, peak_cores, &fig8::paper_edges());
    println!(
        "SuperMUC at {} cores: {:.0} time steps/s with {}^3 blocks (paper peak: 6638 steps/s at 32768 cores)",
        peak_cores, peak.timesteps_per_s, peak.best_edge
    );

    Ok(json!({
        "dt_us_at_finest_dx": uc.dt * 1e6,
        "weak_cores": cores,
        "weak_blocks": blocks,
        "weak_fluid_fraction": row.fluid_fraction,
        "weak_total_fluid_cells": total_fluid,
        "weak_timesteps_per_s": steps_per_s,
        "strong_cores": peak_cores,
        "strong_timesteps_per_s": peak.timesteps_per_s,
        "strong_best_block_edge": peak.best_edge,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_bench::FaultMode;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn names(entries: &[Entry]) -> Vec<&'static str> {
        entries.iter().map(|(n, _)| *n).collect()
    }

    #[test]
    fn no_name_resolves_to_all_twelve_in_paper_order() {
        let (_, all) = resolve(&[]).unwrap();
        assert_eq!(
            names(&all),
            [
                "fig1_partition",
                "fig2_two_stage",
                "tab_forestfile",
                "tab_roofline",
                "fig3_kernels",
                "fig4_ecm",
                "fig5_smt",
                "fig6_weak_dense",
                "tab_headline",
                "fig7_weak_vascular",
                "fig8_strong_vascular",
                "tab_vascular_headline",
            ]
        );
    }

    #[test]
    fn every_entry_name_is_distinct() {
        let mut distinct = names(&ENTRIES);
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), ENTRIES.len(), "entry names must be distinct");
    }

    #[test]
    fn names_resolve_in_the_order_given() {
        let (_, entries) = resolve(&args(&["tab_roofline", "fig3_kernels"])).unwrap();
        assert_eq!(names(&entries), ["tab_roofline", "fig3_kernels"]);
    }

    #[test]
    fn value_flags_take_their_value_and_names_stay_names() {
        let (parsed, entries) = resolve(&args(&["--seed", "3", "ablation_resilience"])).unwrap();
        assert_eq!(names(&entries), ["ablation_resilience"]);
        assert_eq!(parsed.seed, Some(3));
        let (parsed, entries) =
            resolve(&args(&["ablation_overlap", "--json", "--trace", "t.json"])).unwrap();
        assert_eq!(names(&entries), ["ablation_overlap"]);
        assert!(parsed.json);
        assert_eq!(parsed.trace.as_deref(), Some("t.json"));
    }

    #[test]
    fn an_unknown_name_is_an_error_listing_the_valid_names() {
        let err = resolve(&args(&["fig3_kernels", "fig9_nope"])).unwrap_err();
        assert!(err.contains("`fig9_nope`"), "{err}");
        for (name, _) in ENTRIES {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
    }

    #[test]
    fn an_unknown_flag_is_an_error_listing_the_valid_names() {
        let err = resolve(&args(&["ablation_jobs", "--job", "60"])).unwrap_err();
        assert!(err.contains("`--job`"), "{err}");
        for (name, _) in ENTRIES {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
    }

    #[test]
    fn a_value_flag_without_its_value_is_an_error() {
        for words in [
            &["ablation_overlap", "--trace"][..],
            &["ablation_overlap", "--trace", "--json"],
            &["--seed", "three", "ablation_resilience"],
            &["ablation_jobs", "--jobs"],
        ] {
            let err = resolve(&args(words)).unwrap_err();
            assert!(err.contains("valid names"), "{words:?}: {err}");
        }
    }

    #[test]
    fn the_fault_mode_is_parsed_with_the_flags() {
        let (parsed, _) = resolve(&args(&["ablation_resilience", "--fault", "drop"])).unwrap();
        assert_eq!(parsed.fault, Some(FaultMode::Drop));
        let err = resolve(&args(&["ablation_resilience", "--fault", "nope"])).unwrap_err();
        assert!(err.contains("`nope`") && err.contains("valid names"), "{err}");
    }
}
