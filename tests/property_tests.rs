//! Randomized property tests of the core invariants.
//!
//! Each property runs over a deterministic sweep of seeded random cases
//! (a lightweight stand-in for proptest, which is unavailable offline).
//! The invariants and case counts match the original proptest suite.

use rand::{Rng, SeedableRng};
use trillium_field::{AosPdfField, PdfField, Shape, SoaPdfField};
use trillium_kernels as kernels;
use trillium_lattice::{Relaxation, D3Q19, MAGIC_TRT};

const CASES: u64 = 16;

/// Fills a field with equilibrium plus a bounded random perturbation.
fn perturbed_field(n: usize, u0: [f64; 3], rng: &mut rand::rngs::StdRng) -> AosPdfField<D3Q19> {
    let shape = Shape::cube(n);
    let mut src = AosPdfField::<D3Q19>::new(shape);
    src.fill_equilibrium(1.0, u0);
    for v in src.data_mut().iter_mut() {
        *v += rng.gen_range(-1e-3..1e-3);
    }
    src
}

/// Collision conserves mass and momentum for arbitrary (bounded)
/// states — cell-local invariants of the TRT operator.
#[test]
fn collision_invariants_hold() {
    for seed in 0..CASES {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 5;
        let shape = Shape::cube(n);
        let src = perturbed_field(n, [0.0; 3], &mut rng);
        let tau = rng.gen_range(0.55..2.5);
        let mut dst = AosPdfField::<D3Q19>::new(shape);
        kernels::generic::stream_collide_trt(
            &src,
            &mut dst,
            Relaxation::trt_from_tau(tau, MAGIC_TRT),
        );
        for (x, y, z) in shape.interior().iter() {
            // Pre-collision (pulled) state.
            let mut f = [0.0; 19];
            for q in 0..19 {
                let c = trillium_lattice::d3q19::C[q];
                f[q] = src.get(x - c[0] as i32, y - c[1] as i32, z - c[2] as i32, q);
            }
            let rho_pre = trillium_lattice::density::<D3Q19>(&f);
            let j_pre = trillium_lattice::momentum::<D3Q19>(&f);
            let rho_post = dst.density(x, y, z);
            let u_post = dst.velocity(x, y, z);
            assert!((rho_pre - rho_post).abs() < 1e-12);
            for d in 0..3 {
                assert!((j_pre[d] - rho_post * u_post[d]).abs() < 1e-12);
            }
        }
    }
}

/// All kernel tiers agree on arbitrary states (not only near-
/// equilibrium ones): the optimization ladder is semantics-preserving.
#[test]
fn kernel_tiers_agree() {
    for seed in 0..CASES {
        let mut rng = rand::rngs::StdRng::seed_from_u64(100 + seed);
        let n = 6;
        let shape = Shape::cube(n);
        let tau = rng.gen_range(0.6..2.0);
        let rel = Relaxation::trt_from_tau(tau, MAGIC_TRT);
        let aos = perturbed_field(n, [0.01, 0.0, -0.01], &mut rng);
        let mut soa = SoaPdfField::<D3Q19>::new(shape);
        let mut buf = vec![0.0; 19];
        for (x, y, z) in shape.with_ghosts().iter() {
            aos.get_cell(x, y, z, &mut buf);
            soa.set_cell(x, y, z, &buf);
        }
        let mut d_gen = AosPdfField::<D3Q19>::new(shape);
        let mut d_spec = AosPdfField::<D3Q19>::new(shape);
        let mut d_soa = SoaPdfField::<D3Q19>::new(shape);
        let mut d_avx = SoaPdfField::<D3Q19>::new(shape);
        kernels::generic::stream_collide_trt(&aos, &mut d_gen, rel);
        kernels::d3q19::stream_collide_trt(&aos, &mut d_spec, rel);
        kernels::soa::stream_collide_trt(&soa, &mut d_soa, rel);
        kernels::avx::stream_collide_trt(&soa, &mut d_avx, rel);
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                let g = d_gen.get(x, y, z, q);
                assert!((d_spec.get(x, y, z, q) - g).abs() < 1e-13);
                assert!((d_soa.get(x, y, z, q) - g).abs() < 1e-13);
                assert!((d_avx.get(x, y, z, q) - g).abs() < 1e-13);
            }
        }
    }
}

/// Ghost pack → unpack is the identity on the transferred PDFs, for
/// every direction and any block size.
#[test]
fn ghost_roundtrip_identity() {
    use trillium_comm::{pack_face, pdfs_crossing, unpack_face};
    for seed in 0..CASES {
        let mut rng = rand::rngs::StdRng::seed_from_u64(200 + seed);
        let n = rng.gen_range(3usize..8);
        let shape = Shape::cube(n);
        let mut a = AosPdfField::<D3Q19>::new(shape);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                a.set(x, y, z, q, rng.gen_range(-1.0..1.0));
            }
        }
        for d in trillium_blockforest::NEIGHBOR_DIRS {
            let qs = pdfs_crossing::<D3Q19>(d);
            let mut buf = Vec::new();
            pack_face::<D3Q19, _>(&a, d, &mut buf);
            assert_eq!(buf.len(), shape.boundary_slab(d, 1).num_cells() * qs.len() * 8);
            let mut b = AosPdfField::<D3Q19>::new(shape);
            // Receiver sees the sender in direction −d.
            unpack_face::<D3Q19, _>(&mut b, [-d[0], -d[1], -d[2]], &buf);
            // Values must match the source boundary slab, cell for cell.
            let sregion = shape.boundary_slab(d, 1);
            let dregion = shape.ghost_slab([-d[0], -d[1], -d[2]], 1);
            for ((sx, sy, sz), (dx, dy, dz)) in sregion.iter().zip(dregion.iter()) {
                for &q in &qs {
                    assert_eq!(a.get(sx, sy, sz, q), b.get(dx, dy, dz, q));
                }
            }
        }
    }
}

/// BlockId navigation: arbitrary child paths pack/unpack and walk up
/// to the original root.
#[test]
fn block_id_paths() {
    use trillium_blockforest::BlockId;
    for seed in 0..CASES {
        let mut rng = rand::rngs::StdRng::seed_from_u64(300 + seed);
        let root = rng.gen_range(0u64..1_000_000);
        let len = rng.gen_range(0usize..10);
        let path: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..8)).collect();
        let mut id = BlockId::root(root);
        for &o in &path {
            id = id.child(o);
        }
        assert_eq!(id.level() as usize, path.len());
        assert_eq!(id.root_index(), root);
        assert_eq!(BlockId::unpack(id.pack()), id);
        for (l, &o) in path.iter().enumerate() {
            assert_eq!(id.octant_at(l as u8), o);
        }
        let mut up = id;
        for _ in 0..path.len() {
            up = up.parent().unwrap();
        }
        assert_eq!(up, BlockId::root(root));
        assert!(up.parent().is_none());
    }
}

/// Graph partitioner: any connected grid graph is split into k
/// non-empty, balanced parts.
#[test]
fn partitioner_balance_property() {
    use trillium_partition::{partition_kway, Graph};
    for seed in 0..CASES {
        let mut rng = rand::rngs::StdRng::seed_from_u64(400 + seed);
        let nx = rng.gen_range(4usize..9);
        let ny = rng.gen_range(4usize..9);
        let k = rng.gen_range(2usize..9);
        let idx = |x: usize, y: usize| (y * nx + x) as u32;
        let mut edges = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    edges.push((idx(x, y), idx(x + 1, y), 1.0));
                }
                if y + 1 < ny {
                    edges.push((idx(x, y), idx(x, y + 1), 1.0));
                }
            }
        }
        let g = Graph::from_edges(nx * ny, &edges, None);
        let assign = partition_kway(&g, k, 1);
        assert_eq!(assign.len(), nx * ny);
        let mut seen = vec![false; k];
        for &a in &assign {
            assert!((a as usize) < k);
            seen[a as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(g.balance(&assign, k) <= 1.35);
    }
}

/// Relaxation parameter algebra round-trips for arbitrary valid
/// viscosities and magic parameters.
#[test]
fn relaxation_roundtrips() {
    for seed in 0..CASES {
        let mut rng = rand::rngs::StdRng::seed_from_u64(500 + seed);
        let nu = rng.gen_range(1e-4f64..1.0);
        let magic = rng.gen_range(0.05f64..0.5);
        let tau = Relaxation::tau_from_viscosity(nu);
        assert!((Relaxation::viscosity_from_tau(tau) - nu).abs() < 1e-12);
        let r = Relaxation::trt_from_tau(tau, magic);
        assert!((r.magic() - magic).abs() < 1e-9);
        assert!(r.is_stable());
    }
}

/// The forest file format round-trips arbitrary rank/workload data.
#[test]
fn forest_file_roundtrip() {
    use trillium_blockforest::{file, SetupForest};
    use trillium_geometry::{vec3::vec3, Aabb};
    for seed in 0..CASES {
        let mut rng = rand::rngs::StdRng::seed_from_u64(600 + seed);
        let procs = rng.gen_range(1u32..100_000);
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(3.0, 3.0, 3.0));
        let mut f = SetupForest::uniform(domain, [3, 3, 3], [12, 12, 12]);
        f.num_processes = procs;
        for b in f.blocks.iter_mut() {
            b.rank = rng.gen_range(0..procs);
            b.workload = rng.gen_range(0..1728) as f64;
        }
        let data = file::save(&f);
        let g = file::load(&data).unwrap();
        assert_eq!(g.num_processes, procs);
        for (a, b) in f.blocks.iter().zip(&g.blocks) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.id, b.id);
        }
    }
}

/// Collectives deliver exact results under message reordering and
/// duplication: for 32 fault-plan seeds, barrier, sum/min-max-sum
/// reductions and allgather return bit-identical values to the
/// fault-free expectation on every rank.
#[test]
fn collectives_survive_fault_injection() {
    use trillium_comm::{FaultConfig, World};
    const RANKS: u32 = 4;
    let expect_sum: f64 = (0..RANKS).map(|r| (r + 1) as f64 * 0.5).sum();
    let expect_gather: Vec<f64> = (0..RANKS).map(|r| (r + 1) as f64 * 0.5).collect();
    for seed in 0..32u64 {
        let cfg = FaultConfig::new(seed).with_reordering(0.3, 3).with_duplicates(0.2);
        let results = World::run_fallible(RANKS, Some(cfg), |mut comm| {
            let v = (comm.rank() + 1) as f64 * 0.5;
            comm.barrier();
            let sum = comm.allreduce_sum_f64(v);
            let (mn, mx, s2) = comm.allreduce_minmaxsum_f64(v);
            let gathered = comm.allgather_f64(v);
            comm.barrier();
            let count = comm.allreduce_sum_u64(1);
            (sum, mn, mx, s2, gathered, count)
        });
        for (rank, result) in results.into_iter().enumerate() {
            let (sum, mn, mx, s2, gathered, count) = result.expect("no rank panics");
            assert_eq!(sum, expect_sum, "sum on rank {rank}, seed {seed}");
            assert_eq!(mn, 0.5, "min on rank {rank}, seed {seed}");
            assert_eq!(mx, RANKS as f64 * 0.5, "max on rank {rank}, seed {seed}");
            assert_eq!(s2, expect_sum, "fused sum on rank {rank}, seed {seed}");
            assert_eq!(gathered, expect_gather, "gather on rank {rank}, seed {seed}");
            assert_eq!(count, RANKS as u64, "count on rank {rank}, seed {seed}");
        }
    }
}
