//! Criterion benches of the kernel optimization ladder (Fig 3's measured
//! analogue): generic vs specialized vs SoA vs AVX, SRT and TRT, plus the
//! row-interval sparse sweep of §4.3 on a half-filled block.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use trillium_field::{
    AosPdfField, CellFlags, FlagField, FlagOps, PdfField, RowIntervals, Shape, SoaPdfField,
};
use trillium_kernels as kernels;
use trillium_lattice::{Relaxation, D3Q19, MAGIC_TRT};

const N: usize = 48;

fn aos_fields() -> (AosPdfField<D3Q19>, AosPdfField<D3Q19>) {
    let shape = Shape::cube(N);
    let mut src = AosPdfField::<D3Q19>::new(shape);
    let dst = AosPdfField::<D3Q19>::new(shape);
    src.fill_equilibrium(1.0, [0.02, 0.01, -0.01]);
    (src, dst)
}

fn soa_fields() -> (SoaPdfField<D3Q19>, SoaPdfField<D3Q19>) {
    let shape = Shape::cube(N);
    let mut src = SoaPdfField::<D3Q19>::new(shape);
    let dst = SoaPdfField::<D3Q19>::new(shape);
    src.fill_equilibrium(1.0, [0.02, 0.01, -0.01]);
    (src, dst)
}

fn bench_ladder(c: &mut Criterion) {
    let rel = Relaxation::trt_from_tau(0.8, MAGIC_TRT);
    let rel_srt = Relaxation::srt_from_tau(0.8);
    let cells = (N * N * N) as u64;

    let mut g = c.benchmark_group("ladder");
    g.throughput(Throughput::Elements(cells));

    let (asrc, mut adst) = aos_fields();
    g.bench_function(BenchmarkId::new("generic", "srt"), |b| {
        b.iter(|| kernels::generic::stream_collide_srt(&asrc, &mut adst, rel_srt))
    });
    g.bench_function(BenchmarkId::new("generic", "trt"), |b| {
        b.iter(|| kernels::generic::stream_collide_trt(&asrc, &mut adst, rel))
    });
    g.bench_function(BenchmarkId::new("d3q19", "srt"), |b| {
        b.iter(|| kernels::d3q19::stream_collide_srt(&asrc, &mut adst, rel_srt))
    });
    g.bench_function(BenchmarkId::new("d3q19", "trt"), |b| {
        b.iter(|| kernels::d3q19::stream_collide_trt(&asrc, &mut adst, rel))
    });

    let (ssrc, mut sdst) = soa_fields();
    g.bench_function(BenchmarkId::new("soa", "srt"), |b| {
        b.iter(|| kernels::soa::stream_collide_srt(&ssrc, &mut sdst, rel_srt))
    });
    g.bench_function(BenchmarkId::new("soa", "trt"), |b| {
        b.iter(|| kernels::soa::stream_collide_trt(&ssrc, &mut sdst, rel))
    });
    g.bench_function(BenchmarkId::new("avx", "trt"), |b| {
        b.iter(|| kernels::avx::stream_collide_trt(&ssrc, &mut sdst, rel))
    });

    // In-place AA-pattern tier: one buffer, parity alternated per sweep
    // (the kernels themselves never flip it).
    let (mut aa, _) = soa_fields();
    g.bench_function(BenchmarkId::new("inplace", "srt"), |b| {
        b.iter(|| {
            let s = kernels::inplace::stream_collide_srt(&mut aa, rel_srt);
            let p = aa.parity();
            aa.set_parity(!p);
            s
        })
    });
    g.bench_function(BenchmarkId::new("inplace", "trt"), |b| {
        b.iter(|| {
            let s = kernels::inplace::stream_collide_trt(&mut aa, rel);
            let p = aa.parity();
            aa.set_parity(!p);
            s
        })
    });
    g.finish();
}

/// A block whose lower half is fluid: the §4.3 sparse-strategy ablation.
fn half_filled_flags() -> FlagField {
    let shape = Shape::cube(N);
    let mut flags = FlagField::new(shape);
    for (x, y, z) in shape.interior().iter() {
        if z < (N / 2) as i32 {
            flags.set_flags(x, y, z, CellFlags::FLUID);
        }
    }
    flags
}

fn bench_sparse(c: &mut Criterion) {
    let rel = Relaxation::trt_from_tau(0.8, MAGIC_TRT);
    let flags = half_filled_flags();
    let fluid = flags.count_fluid() as u64;
    let (ssrc, mut sdst) = soa_fields();
    let intervals = RowIntervals::build(&flags);

    let mut g = c.benchmark_group("sparse");
    g.throughput(Throughput::Elements(fluid));
    let portable = kernels::BackendKind::Portable.dispatch();
    g.bench_function("row_intervals", |b| {
        b.iter(|| portable.sweep_sparse(kernels::Collision::Trt, &ssrc, &mut sdst, &intervals, rel))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ladder, bench_sparse
}
criterion_main!(benches);
