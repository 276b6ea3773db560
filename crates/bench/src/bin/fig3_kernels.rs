//! Fig 3 — single-node kernel-ladder comparison.
//!
//! Prints (a) the model series for a SuperMUC socket and a JUQUEEN node
//! (calibrated tier models), and (b) *measured* MLUPS of the real Rust
//! kernels of this repository on the host, for all three tiers × SRT/TRT.
//! The paper's qualitative claims to check: generic < specialized < SIMD,
//! SIMD SRT ≈ SIMD TRT, and only the SIMD tier approaching the host's
//! bandwidth roofline.

use trillium_bench::{bench_relaxation, emit_json, measure_mlups, section, HarnessArgs};
use trillium_field::{AosPdfField, PdfField, Shape};
use trillium_kernels as kernels;
use trillium_lattice::{Relaxation, D3Q19};
use trillium_machine::{measure_lbm_bandwidth, MachineSpec};
use trillium_perfmodel::{roofline_mlups, EcmModel};
use trillium_scaling::fig3::fig3_series;

fn main() {
    let args = HarnessArgs::parse();
    let n = if args.full { 128 } else { 64 };
    let reps = if args.full { 10 } else { 4 };

    section("Fig 3 (model): SuperMUC socket");
    let sm = fig3_series(&MachineSpec::supermuc());
    print_model(&sm);
    section("Fig 3 (model): JUQUEEN node");
    let jq = fig3_series(&MachineSpec::juqueen());
    print_model(&jq);

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

    // Host roofline from the measured bandwidths (the roofline bound uses
    // the best bandwidth the memory interface delivers).
    let bw_lbm = measure_lbm_bandwidth(1 << 17, 5);
    let bw_copy = trillium_machine::measure_copy_bandwidth(16 << 20, 5);
    let bw = bw_lbm.max(bw_copy);
    let roof = roofline_mlups(bw, 19);
    println!();
    println!(
        "host bandwidth: copy {bw_copy:.1} GiB/s, LBM-pattern {bw_lbm:.1} GiB/s -> roofline {roof:.1} MLUPS"
    );
    println!("SIMD tier reaches {:.0} % of the host roofline", 100.0 * avx_trt.max(soa_trt) / roof);

    if args.json {
        let payload = serde_json::json!({
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
                "bandwidth_gib": bw,
                "roofline_mlups": roof,
            },
        });
        emit_json("fig3_kernels", payload);
    }
}

fn print_model(rows: &[trillium_scaling::fig3::Fig3Row]) {
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
