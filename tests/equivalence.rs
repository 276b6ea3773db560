//! The equivalence contract of the distributed time loop (paper §2.2, §3):
//! any ranks, threads, schedule, update scheme, operator, backend, balancer,
//! step parity and mid-run event land on the fluid PDFs, cell counts, probes
//! and forces of one oracle run (synchronous, pull, portable, one rank).
//! Named cases and a fixed-seed sample of the product space are checked; a
//! failing case prints as a `Config` literal. Migrations are scripted, so
//! whether a case migrates is a fact, not a clock outcome.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use trillium_blockforest::{distribute, file, morton_balance};
use trillium_blockforest::{SetupBlock, SetupForest};
use trillium_comm::World;
use trillium_core::checkpoint::{restore_block_full, save_block_full, RestoreError};
use trillium_core::migrate::{execute_migrations, MIGRATION_TAG_BASE};
use trillium_core::prelude::*;
use trillium_field::flags::FlagOps;
use trillium_geometry::vec3::vec3;
use trillium_geometry::{AnalyticSdf, VascularTree, VascularTreeParams};
use trillium_rebalance::{BlockRecord, Migration, PlanMethod, RebalancePlan};
use BackendKind::*;
use Balancer::*;
use Collision::*;
use Event::*;
use Geometry::*;
use UpdateScheme::*;

/// Seed and size of the product-space sample.
const SEED: u64 = 43;
const SAMPLES: usize = 24;

/// The flows a case runs. `Channel`: velocity inlet, pressure outlet (its
/// flow stops being uniform at step 23, so a sweep that reads it before the
/// exchange differs from then on) and an obstacle carving the middle one of
/// its three blocks. `Tree`: a small vessel tree, every block carved on a
/// row store. `VonKarman`: dense blocks with `OBSTACLE` ghost cells, 8
/// carved cylinder blocks and a force series. `Cube27` and `WideChannel`
/// are compared against their domain on one block.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Geometry {
    Cavity,
    Cube27,
    Channel,
    WideChannel,
    Tree,
    VonKarman,
}

impl Geometry {
    /// Blocks, default ranks, the even step count and the probed fluid cells.
    const fn spec(self) -> (u32, u32, u64, &'static [[i64; 3]]) {
        match self {
            Cavity => (8, 4, 24, &[[1, 1, 1], [8, 8, 14], [0, 15, 8], [12, 13, 14]]),
            Cube27 => (27, 27, 30, &[[0, 0, 0], [17, 17, 17], [9, 8, 7], [17, 0, 9]]),
            Channel => (3, 2, 40, &[[3, 3, 3], [18, 5, 2], [12, 1, 6], [22, 6, 4]]),
            WideChannel => (8, 8, 40, &[[4, 4, 4], [20, 10, 8], [30, 3, 12], [16, 14, 8]]),
            Tree => (26, 1, 30, &[]),
            VonKarman => (64, 2, 8, &[[4, 8, 0], [40, 20, 1]]),
        }
    }

    /// The scenario, on one block (`coarse`) or on its own blocks.
    fn scenario(self, coarse: bool) -> Scenario {
        let b = |n: usize| if coarse { 1 } else { n };
        match self {
            Cavity => Scenario::lid_driven_cavity(16, b(2), 0.05, 0.08),
            Cube27 => Scenario::lid_driven_cavity(18, b(3), 0.07, 0.06),
            Channel => Scenario::channel_with_obstacle([24, 8, 8], [b(3), 1, 1], 0.08, 0.04, 0.18),
            WideChannel => {
                Scenario::channel_with_obstacle([32, 16, 16], [b(2); 3], 0.07, 0.03, 0.2)
            }
            VonKarman => Scenario::von_karman([64, 32, 2], [8, 4, 2], 0.02, 0.05, 16.0),
            Tree => {
                let tree = VascularTree::generate(&VascularTreeParams {
                    generations: 2,
                    segments_per_branch: 2,
                    root_radius: 1.2,
                    root_length: 6.0,
                    tortuosity: 0.2,
                    ..Default::default()
                });
                let sdf = Arc::new(tree);
                setup_domain("vessel-tree", sdf, 0.3, [8; 3], 1, Morton, 0.08, [0.0, 0.0, 0.04])
                    .scenario
            }
        }
    }
}

/// What happens mid-run: nothing; a scripted migration after step `k`; the
/// composed rebalance hook, planning from measured costs; a crash of rank 1
/// at step `k`, rolled back to a checkpoint.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Event {
    Still,
    Migrate(u64),
    Hook,
    Crash(u64),
}

/// One point of the product space.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Config {
    geometry: Geometry,
    ranks: u32,
    threads: usize,
    overlap: bool,
    kernel: UpdateScheme,
    op: Collision,
    backend: BackendKind,
    balance: Balancer,
    odd: bool,
    event: Event,
    /// The oracle runs the domain on one block, compared in global cells.
    coarse: bool,
}

/// A geometry's defaults: the scenario's own scheme, operator, backend and
/// balancer, on the ranks most of its cases use.
const fn base(geometry: Geometry) -> Config {
    let (ranks, threads, overlap, odd) = (geometry.spec().1, 1, false, false);
    let (kernel, op, backend, balance, event) = (InPlace, Trt, Avx2, Morton, Still);
    let coarse = matches!(geometry, Cube27 | WideChannel);
    Config { geometry, ranks, threads, overlap, kernel, op, backend, balance, odd, event, coarse }
}

/// The fields that differ from `base`, as a literal that pastes into `NAMED`.
impl std::fmt::Display for Config {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        let fields = |c: Config| {
            let s = format!("{c:?}");
            s["Config { ".len()..s.len() - 2].split(", ").map(|f| f.to_string() + ", ").collect()
        };
        let (me, b): (Vec<String>, Vec<String>) = (fields(*self), fields(base(self.geometry)));
        let diff: String = me.into_iter().filter(|f| !b.contains(f)).collect();
        write!(f, "Config {{ {diff}..base({:?}) }}", self.geometry)
    }
}

impl Config {
    /// The combinations that cannot run: von Kármán outside the MRT family
    /// (SRT and TRT diverge on it), more ranks than blocks, and a crash or a
    /// migration on one rank.
    fn valid(&self) -> bool {
        (self.geometry != VonKarman || self.op.is_mrt())
            && self.ranks <= self.geometry.spec().0
            && (self.ranks > 1 || matches!(self.event, Still | Hook))
    }

    fn steps(&self) -> u64 {
        self.geometry.spec().2 + u64::from(self.odd)
    }

    fn scenario(&self, coarse: bool) -> Scenario {
        (self.geometry.scenario(coarse))
            .with_kernel(self.kernel)
            .with_collision(self.op)
            .with_backend(self.backend)
            .with_balancer(self.balance)
    }

    /// The oracle of this case: synchronous, pull, portable, one rank.
    fn oracle(&self) -> Config {
        let Config { geometry, op, odd, coarse, .. } = *self;
        Config { ranks: 1, kernel: Pull, backend: Portable, op, odd, coarse, ..base(geometry) }
    }
}

/// What a run is compared by; `pdfs` in global cell order, zero off fluid.
struct Out {
    pdfs: Vec<f64>,
    cells: u64,
    fluid_cells: u64,
    probes: Vec<f64>,
    forces: Vec<f64>,
}

/// Runs `cfg` (its domain on one block if `coarse`).
fn run(cfg: Config, coarse: bool) -> Out {
    let s = cfg.scenario(coarse);
    let plan = plan_run(&s, cfg.ranks);
    let blocks = if coarse { 1 } else { cfg.geometry.spec().0 };
    assert_eq!(plan.forest.blocks.len() as u32, blocks, "{:?} blocks", cfg.geometry);
    let driver = DriverConfig {
        overlap: cfg.overlap,
        collect_pdfs: true,
        force_mask: (cfg.geometry == VonKarman).then_some(CellFlags::OBSTACLE),
        ..DriverConfig::default()
    };
    let r = if let Migrate(k) = cfg.event {
        scripted(&cfg, k, &plan, &s, driver)
    } else {
        let rc = RunConfig {
            driver,
            rebalance: (cfg.event == Hook).then_some(RebalanceConfig {
                every_n_steps: 3,
                threshold: 1.0,
                hysteresis: 1,
                cooldown_epochs: 1,
                ..RebalanceConfig::default()
            }),
            resilience: match cfg.event {
                Crash(k) => Some(ResilienceConfig {
                    checkpoint_every: 4,
                    fault: Some(FaultConfig::new(7).with_crash(1, k)),
                    ..ResilienceConfig::default()
                }),
                _ => None,
            },
        };
        let probes = cfg.geometry.spec().3;
        let r = run_planned(&plan, &s, cfg.threads, cfg.steps(), probes, &rc).expect("recovers");
        assert_eq!(r.recoveries(), u32::from(matches!(cfg.event, Crash(_))), "rollbacks");
        assert_eq!(r.final_load_ratio().is_some(), cfg.event == Hook, "monitoring epochs");
        r
    };
    outcome(&r, &s, &plan.forest)
}

/// `cfg` under `World::run`, `RankLoop` driven by hand: after step `k` every
/// rank executes the plan that moves the blocks of odd root index (the
/// carved `Channel` block among them) to the next rank. Each block keeps its
/// scheme byte on the wire and arrives with the boundary links and storage
/// a fresh build has; where the geometry carves blocks, a row store moves.
fn scripted(cfg: &Config, k: u64, plan: &RunPlan, s: &Scenario, d: DriverConfig) -> RunResult {
    let (n, steps, probes) = (cfg.ranks, cfg.steps(), cfg.geometry.spec().3);
    let to = |b: &SetupBlock| if b.id.root_index() % 2 == 1 { (b.rank + 1) % n } else { b.rank };
    let (moves, mut moved) = (moving(plan, to), plan.forest.clone());
    moved.blocks.iter_mut().for_each(|b| b.rank = to(b));
    let views = distribute(&moved);
    let want = if s.kernel == Pull { 0 } else { 1 + (k % 2) as u8 };
    // The scheme byte of a TCP2 payload follows magic and nx/ny/nz/ghost; its
    // low two bits are Pull = 0, InPlace even = 1, odd = 2 (bit 2: rows).
    let scheme = |b: &BlockSim| save_block_full(b)[4 + 16] & 3;
    let ranks = World::run(n, |comm| {
        let rank = comm.rank() as usize;
        let mut lp = RankLoop::new(comm, plan, s, cfg.threads, d);
        let (mut sent, mut rows) = (0, 0);
        for t in 0..steps {
            if t == k {
                assert!(lp.blocks().iter().all(|b| scheme(b) == want), "scheme byte at {k}");
                sent = execute_migrations(&mut lp, &moves, None).expect("the plan is valid").sent;
                assert_eq!(lp.blocks().len(), views[rank].blocks.len());
                for (lb, b) in views[rank].blocks.iter().zip(lp.blocks()) {
                    let fresh = s.build_block(lb);
                    assert_eq!(scheme(b), want, "a migrated block changed its parity");
                    assert_eq!(b.boundary_links(), fresh.boundary_links());
                    assert_eq!(b.src.rows().is_some(), fresh.src.rows().is_some());
                    let arrived = moves.migrations().any(|m| m.id == lb.id.pack());
                    rows += usize::from(arrived && b.src.rows().is_some());
                }
            }
            lp.step(t, None).expect("an unfaulted step");
        }
        (lp.finish(probes, None, None), sent, rows)
    });
    assert!(ranks.iter().map(|r| r.1).sum::<u32>() > 0, "the plan moved no block");
    let carves = !matches!(cfg.geometry, Cavity | Cube27);
    assert!(!carves || ranks.iter().map(|r| r.2).sum::<usize>() > 0, "no row store moved");
    RunResult { steps, ranks: ranks.into_iter().map(|r| r.0).collect() }
}

/// A plan, executable on every rank, that gives each block `b` to `to(b)`.
fn moving(run_plan: &RunPlan, to: impl Fn(&SetupBlock) -> u32) -> RebalancePlan {
    let mut blocks: Vec<&SetupBlock> = run_plan.forest.blocks.iter().collect();
    blocks.sort_by_key(|b| b.id.pack());
    let records: Vec<BlockRecord> = (blocks.iter())
        .map(|b| BlockRecord {
            id: b.id.pack(),
            owner: b.rank,
            coords: [0, 0, 0],
            level: b.id.level(),
            cost: 1.0,
            fluid_cells: 1,
        })
        .collect();
    let assignment: Vec<u32> = blocks.into_iter().map(to).collect();
    RebalancePlan::new(records, assignment, PlanMethod::NoOp, 1.0, 1.0)
}

/// The run's outcome, its dump laid out in global cell coordinates.
fn outcome(r: &RunResult, s: &Scenario, forest: &SetupForest) -> Out {
    let ([gx, gy, gz], [cx, cy, _]) = (s.global_cells(), s.cells);
    let mut pdfs = vec![0.0; gx * gy * gz * 19];
    for (id, vals) in r.pdf_dump() {
        let b = forest.blocks.iter().find(|b| b.id.pack() == id).expect("a dumped block");
        let o = [0, 1, 2].map(|d| b.coords[d] as usize * s.cells[d]);
        for (i, cell) in vals.chunks_exact(19).enumerate() {
            let [x, y, z] = [o[0] + i % cx, o[1] + i / cx % cy, o[2] + i / (cx * cy)];
            pdfs[((z * gy + y) * gx + x) * 19..][..19].copy_from_slice(cell);
        }
    }
    let (cells, fluid_cells) = (r.total_stats().cells, r.total_stats().fluid_cells);
    let probes = r.probes().iter().flat_map(|(_, u)| *u).collect();
    Out { pdfs, cells, fluid_cells, probes, forces: r.force_series().concat() }
}

/// One oracle per (geometry, operator, parity, decomposition), shared by
/// every case that needs it.
fn oracle(cfg: Config) -> &'static Out {
    static CACHE: Mutex<Vec<(Config, &'static OnceLock<Out>)>> = Mutex::new(Vec::new());
    let key = cfg.oracle();
    let cell = {
        let mut cache = CACHE.lock().unwrap();
        if !cache.iter().any(|(c, _)| *c == key) {
            cache.push((key, Box::leak(Box::default())));
        }
        cache.iter().find(|(c, _)| *c == key).unwrap().1
    };
    cell.get_or_init(|| {
        let out = run(key, key.coarse);
        assert!(out.pdfs.iter().all(|v| v.is_finite()), "{key}: the oracle diverged");
        assert!(key.geometry != VonKarman || out.forces.iter().any(|&f| f != 0.0), "no drag");
        assert_eq!(out.probes.len(), 3 * key.geometry.spec().3.len(), "{key}: lost probes");
        out
    })
}

/// Whether `a` and `b` agree to `tol`; bitwise if it is 0.
fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || (x - y).abs() < tol)
}

/// Runs `cfg` and compares it with its oracle: bitwise, except that the wide
/// channel on one block agrees to 1e-13 (its obstacle carves other blocks)
/// and a coarse oracle swept other cells. Forces are bitwise on every case:
/// each step folds the per-block forces in block-id order.
fn check(cfg: Config) {
    assert!(cfg.valid(), "{cfg} is not a valid combination");
    let (got, want) = (run(cfg, false), oracle(cfg));
    let tol = if cfg.coarse && cfg.geometry == WideChannel { 1e-13 } else { 0.0 };
    assert!(close(&got.pdfs, &want.pdfs, tol), "{cfg}: PDFs differ");
    assert!(cfg.coarse || got.cells == want.cells, "{cfg}: swept cells");
    assert_eq!(got.fluid_cells, want.fluid_cells, "{cfg}: fluid cells");
    assert!(close(&got.probes, &want.probes, tol), "{cfg}: probes differ");
    assert!(close(&got.forces, &want.forces, 0.0), "{cfg}: force series differ");
}

/// Checks every case, on two workers, and lists the ones that failed.
fn check_all(cases: &[Config]) {
    let (next, failed) = (AtomicUsize::new(0), Mutex::new(Vec::new()));
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while let Some(&c) = cases.get(next.fetch_add(1, Ordering::Relaxed)) {
                    if std::panic::catch_unwind(|| check(c)).is_err() {
                        failed.lock().unwrap().push(format!("    {c},"));
                    }
                }
            });
        }
    });
    let failed = failed.into_inner().unwrap().join("\n");
    assert!(failed.is_empty(), "failing cases of {}:\n{failed}", cases.len());
}

/// Hand-picked cases, one test per group, each named after a gate it
/// replaced; `NAMED` is all of them. A printed failing case pastes in.
macro_rules! named {
    ($($test:ident: [$($case:expr,)*])*) => {
        const NAMED: &[Config] = &[$($($case,)*)*];
        $(#[test] fn $test() { check_all(&[$($case),*]); })*
    };
}

named! {
    inplace_matches_pull_on_sync_and_overlapped_schedules: [
        Config { ..base(Cavity) },
        Config { odd: true, ..base(Cavity) },
        Config { overlap: true, ..base(Cavity) },
        Config { overlap: true, odd: true, ..base(Cavity) },
        Config { ranks: 1, ..base(Channel) },
        Config { ranks: 1, odd: true, ..base(Channel) },
        Config { ranks: 1, overlap: true, ..base(Channel) },
        Config { ranks: 1, overlap: true, odd: true, ..base(Channel) },
        Config { ranks: 3, ..base(Channel) },
        Config { ranks: 3, odd: true, ..base(Channel) },
        Config { ranks: 3, overlap: true, ..base(Channel) },
        Config { ranks: 3, overlap: true, odd: true, ..base(Channel) },
    ]
    inplace_matches_pull_on_a_carved_vessel_tree: [
        Config { ..base(Tree) },
        Config { odd: true, ..base(Tree) },
        Config { overlap: true, ..base(Tree) },
        Config { overlap: true, odd: true, ..base(Tree) },
        Config { ranks: 3, ..base(Tree) },
        Config { ranks: 3, odd: true, ..base(Tree) },
        Config { ranks: 3, overlap: true, ..base(Tree) },
        Config { ranks: 3, overlap: true, odd: true, ..base(Tree) },
    ]
    inplace_matches_pull_under_rebalancing_migrations: [
        Config { ranks: 2, balance: Skewed(0.9), event: Hook, ..base(Cavity) },
        Config { ranks: 2, overlap: true, balance: Skewed(0.9), event: Hook, ..base(Cavity) },
        Config { ranks: 2, overlap: true, kernel: Pull, balance: Skewed(0.9), event: Hook, ..base(Cavity) },
    ]
    inplace_matches_pull_through_fault_recovery: [
        Config { event: Crash(13), ..base(Cavity) },
    ]
    von_karman_in_place_matches_pull_with_forces: [
        Config { op: Mrt, ..base(VonKarman) },
        Config { op: Mrt, odd: true, ..base(VonKarman) },
        Config { overlap: true, op: Mrt, ..base(VonKarman) },
        Config { overlap: true, op: Mrt, odd: true, ..base(VonKarman) },
        Config { op: MrtLes, ..base(VonKarman) },
        Config { op: MrtLes, odd: true, ..base(VonKarman) },
        Config { overlap: true, op: MrtLes, ..base(VonKarman) },
        Config { overlap: true, op: MrtLes, odd: true, ..base(VonKarman) },
        Config { ranks: 1, op: Mrt, ..base(VonKarman) },
        Config { ranks: 1, op: Mrt, odd: true, ..base(VonKarman) },
        Config { ranks: 1, overlap: true, op: Mrt, ..base(VonKarman) },
        Config { ranks: 1, overlap: true, op: Mrt, odd: true, ..base(VonKarman) },
        Config { ranks: 1, op: MrtLes, ..base(VonKarman) },
        Config { ranks: 1, op: MrtLes, odd: true, ..base(VonKarman) },
        Config { ranks: 1, overlap: true, op: MrtLes, ..base(VonKarman) },
        Config { ranks: 1, overlap: true, op: MrtLes, odd: true, ..base(VonKarman) },
    ]
    backends_agree_on_sync_and_overlapped_schedules: [
        Config { kernel: Pull, ..base(Cavity) },
        Config { kernel: Pull, odd: true, ..base(Cavity) },
        Config { overlap: true, kernel: Pull, ..base(Cavity) },
        Config { overlap: true, kernel: Pull, odd: true, ..base(Cavity) },
        Config { kernel: Pull, backend: Portable, ..base(Cavity) },
        Config { kernel: Pull, backend: Portable, odd: true, ..base(Cavity) },
        Config { overlap: true, kernel: Pull, backend: Portable, ..base(Cavity) },
        Config { overlap: true, kernel: Pull, backend: Portable, odd: true, ..base(Cavity) },
        Config { backend: Portable, ..base(Cavity) },
        Config { backend: Portable, odd: true, ..base(Cavity) },
        Config { overlap: true, backend: Portable, ..base(Cavity) },
        Config { overlap: true, backend: Portable, odd: true, ..base(Cavity) },
        Config { kernel: Pull, backend: Workgroup, ..base(Cavity) },
        Config { kernel: Pull, backend: Workgroup, odd: true, ..base(Cavity) },
        Config { overlap: true, kernel: Pull, backend: Workgroup, ..base(Cavity) },
        Config { overlap: true, kernel: Pull, backend: Workgroup, odd: true, ..base(Cavity) },
        Config { backend: Workgroup, ..base(Cavity) },
        Config { backend: Workgroup, odd: true, ..base(Cavity) },
        Config { overlap: true, backend: Workgroup, ..base(Cavity) },
        Config { overlap: true, backend: Workgroup, odd: true, ..base(Cavity) },
    ]
    backends_agree_on_a_carved_tree: [
        Config { ranks: 2, overlap: true, backend: Portable, balance: Graph, ..base(Tree) },
        Config { ranks: 2, overlap: true, balance: Graph, ..base(Tree) },
    ]
    backends_agree_under_rebalancing_migrations: [
        Config { ranks: 2, kernel: Pull, backend: Portable, balance: Skewed(0.9), event: Hook, ..base(Cavity) },
        Config { ranks: 2, overlap: true, kernel: Pull, backend: Portable, balance: Skewed(0.9), event: Hook, ..base(Cavity) },
        Config { ranks: 2, kernel: Pull, backend: Workgroup, balance: Skewed(0.9), event: Hook, ..base(Cavity) },
        Config { ranks: 2, overlap: true, kernel: Pull, backend: Workgroup, balance: Skewed(0.9), event: Hook, ..base(Cavity) },
    ]
    backends_agree_through_fault_recovery: [
        Config { backend: Portable, event: Crash(13), ..base(Cavity) },
        Config { backend: Workgroup, event: Crash(13), ..base(Cavity) },
    ]
    backends_agree_with_mrt_les: [
        Config { op: MrtLes, backend: Portable, ..base(Cavity) },
        Config { op: MrtLes, backend: Workgroup, ..base(Cavity) },
    ]
    mrt_is_bitwise_invariant_across_schedules_and_tiers: [
        Config { overlap: true, kernel: Pull, op: Mrt, ..base(Cavity) },
        Config { kernel: Pull, op: Mrt, balance: Skewed(0.9), event: Hook, ..base(Cavity) },
        Config { overlap: true, kernel: Pull, op: Mrt, balance: Skewed(0.9), event: Hook, ..base(Cavity) },
        Config { kernel: Pull, op: Mrt, event: Crash(13), ..base(Cavity) },
        Config { op: Mrt, ..base(Cavity) },
    ]
    mrt_les_is_bitwise_invariant_across_schedules_and_tiers: [
        Config { overlap: true, kernel: Pull, op: MrtLes, ..base(Cavity) },
        Config { kernel: Pull, op: MrtLes, balance: Skewed(0.9), event: Hook, ..base(Cavity) },
        Config { overlap: true, kernel: Pull, op: MrtLes, balance: Skewed(0.9), event: Hook, ..base(Cavity) },
        Config { kernel: Pull, op: MrtLes, event: Crash(13), ..base(Cavity) },
        Config { op: MrtLes, ..base(Cavity) },
    ]
    balanced_run_stays_correct_with_rebalancer_armed: [
        Config { event: Hook, ..base(Cavity) },
    ]
    rebalanced_physics_matches_unbalanced_run: [
        Config { ranks: 2, kernel: Pull, balance: Skewed(0.9), event: Hook, ..base(Cavity) },
    ]
    inplace_block_migrated_at_odd_parity_is_bitwise_preserved: [
        Config { ranks: 2, event: Migrate(3), ..base(Cavity) },
    ]
    probes_survive_migrations_bitwise: [
        Config { ranks: 2, balance: Skewed(0.9), event: Migrate(3), ..base(Cavity) },
    ]
    rebalanced_inplace_run_with_odd_epochs_matches_plain_run_bitwise: [
        Config { ranks: 2, overlap: true, balance: Skewed(0.9), event: Migrate(3), ..base(Cavity) },
    ]
    carved_channel_migrates_and_recovers_bitwise: [
        Config { balance: Skewed(0.9), event: Migrate(12), ..base(Channel) },
        Config { balance: Skewed(0.9), odd: true, event: Migrate(9), ..base(Channel) },
        Config { overlap: true, balance: Skewed(0.9), event: Migrate(9), ..base(Channel) },
        Config { overlap: true, balance: Skewed(0.9), odd: true, event: Migrate(12), ..base(Channel) },
        Config { balance: Skewed(0.9), ..base(Channel) },
        Config { balance: Skewed(0.9), odd: true, ..base(Channel) },
        Config { event: Crash(10), ..base(Channel) },
        Config { odd: true, event: Crash(10), ..base(Channel) },
        Config { overlap: true, event: Crash(10), ..base(Channel) },
        Config { overlap: true, odd: true, event: Crash(10), ..base(Channel) },
        Config { balance: Skewed(0.9), event: Crash(10), ..base(Channel) },
        Config { ranks: 2, event: Migrate(3), ..base(Tree) },
        Config { ranks: 2, event: Migrate(4), ..base(Tree) },
    ]
    overlapped_checkpoint_restart_matches_sync_reference: [
        Config { ranks: 4, overlap: true, balance: Skewed(0.7), event: Crash(13), ..base(Tree) },
    ]
    twenty_seven_ranks_bitwise_equal: [
        Config { ..base(Cube27) },
    ]
    uneven_rank_block_ratio_equals_reference: [
        Config { ranks: 5, coarse: true, ..base(Cavity) },
    ]
    channel_obstacle_decomposition_invariant: [
        Config { ..base(WideChannel) },
    ]
    thread_count_does_not_change_results: [
        Config { ranks: 2, threads: 2, ..base(Cavity) },
    ]
    overlapped_skewed_vascular_bitwise_equal: [
        Config { ranks: 4, overlap: true, balance: Skewed(0.7), ..base(Tree) },
        Config { ranks: 4, threads: 2, overlap: true, balance: Skewed(0.7), ..base(Tree) },
    ]
}

/// `SAMPLES` distinct valid cases drawn from the product space, none of
/// them named.
fn sample() -> Vec<Config> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut out = Vec::new();
    while out.len() < SAMPLES {
        let geometry = *[Cavity, Channel, Tree, VonKarman].choose(&mut rng).unwrap();
        let k = rng.gen_range(1..geometry.spec().2);
        let cfg = Config {
            geometry,
            ranks: rng.gen_range(1..=4),
            threads: rng.gen_range(1..=2),
            overlap: rng.gen_bool(0.5),
            kernel: *[Pull, InPlace].choose(&mut rng).unwrap(),
            op: *Collision::ALL.choose(&mut rng).unwrap(),
            backend: *BackendKind::ALL.choose(&mut rng).unwrap(),
            balance: *[Morton, Graph, Skewed(0.9)].choose(&mut rng).unwrap(),
            odd: rng.gen_bool(0.5),
            event: *[Still, Migrate(k), Hook, Crash(k)].choose(&mut rng).unwrap(),
            coarse: false,
        };
        if cfg.valid() && !out.contains(&cfg) && !NAMED.contains(&cfg) {
            out.push(cfg);
        }
    }
    out
}

#[test]
fn sampled_cases_match_their_oracle() {
    check_all(&sample());
}

/// The geometries carve as their cases assume: per geometry, its blocks
/// all in place on one field, the carved ones (row stores), and the dense
/// ones with `OBSTACLE` cells in their ghost layer.
#[test]
fn geometries_carve_as_pinned() {
    for (g, carved, dense_obstacle) in [(Tree, 26, 0), (Channel, 1, 0), (VonKarman, 8, 12)] {
        let s = g.scenario(false);
        let blocks: Vec<BlockSim> =
            plan_run(&s, 1).views[0].blocks.iter().map(|lb| s.build_block(lb)).collect();
        assert!(blocks.iter().all(|b| b.scheme == InPlace && b.dst.data().is_empty()));
        assert_eq!(blocks.len() as u32, g.spec().0, "{g:?}");
        let obstacle = |b: &&&BlockSim| {
            let at = |(x, y, z)| b.flags.flags(x, y, z).intersects(CellFlags::OBSTACLE);
            b.shape.with_ghosts().iter().any(at)
        };
        let (rows, dense): (Vec<_>, Vec<_>) = blocks.iter().partition(|b| b.src.rows().is_some());
        assert_eq!((rows.len(), dense.iter().filter(obstacle).count()), (carved, dense_obstacle));
    }
}

/// What a run leaves behind, as bits: per rank `mass_initial`,
/// `mass_final`, `energy_initial`, `energy_final`, then one FNV-1a digest
/// over every dumped block id and PDF.
fn run_bits(r: &RunResult) -> Vec<u64> {
    let totals = |x: &RankResult| [x.mass_initial, x.mass_final, x.energy_initial, x.energy_final];
    let mut bits: Vec<u64> = r.ranks.iter().flat_map(totals).map(f64::to_bits).collect();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (id, vals) in r.pdf_dump() {
        eat(id);
        vals.iter().for_each(|v| eat(v.to_bits()));
    }
    bits.push(h);
    bits
}

/// The conservation totals and the final PDFs of a small-block run, bit
/// for bit as the commit before the fused reduction pass and the
/// field-to-field same-rank exchange computed them (the literals were
/// printed by that commit's code). 32³ cells in 8³ blocks on 2 ranks is
/// the benchmark's `cavity_smallblocks` shape; 5 steps end an in-place
/// run at odd storage parity. The digests cover the fluid cells (a dump
/// writes zeros for the rest); `CHANNEL[8]` was printed by the commit that
/// masked the dump, every other literal by the older one. The in-place
/// channel runs its blocks carved by the obstacle in place on their row
/// stores beside dense ones on both ranks; its literals were printed when
/// the carved blocks still ran pull, so they pin the fluid PDFs of the
/// two schemes to each other.
#[test]
fn totals_and_pdfs_are_pinned_across_schedules_and_schemes() {
    const CAVITY: [u64; 9] = [
        4670232813583204353,
        4670232813583204353,
        0,
        4171387690891083776,
        4670232813583204353,
        4670232813583204349,
        0,
        4604364729728332863,
        2684552734057877363,
    ];
    const CHANNEL: [u64; 9] = [
        4661076080747085825,
        4661157004802890137,
        0,
        4598547121595988940,
        4661076080747085825,
        4661076080747085825,
        0,
        4172722193064525824,
        15194906994396909308,
    ];
    let cavity = || Scenario::lid_driven_cavity(32, 4, 0.05, 0.08);
    let channel = || Scenario::channel_with_obstacle([32, 16, 16], [4, 2, 2], 0.07, 0.03, 0.2);
    let inplace = channel().with_kernel(KernelChoice::InPlace);
    let views = distribute(&inplace.make_forest(2));
    let blocks: Vec<BlockSim> =
        views.iter().flat_map(|v| &v.blocks).map(|lb| inplace.build_block(lb)).collect();
    assert!(blocks.iter().any(|b| b.src.rows().is_some()), "the obstacle carves blocks");
    assert!(blocks.iter().all(|b| b.scheme == UpdateScheme::InPlace), "every block runs in place");
    for overlap in [false, true] {
        let cfg = DriverConfig { overlap, collect_pdfs: true, ..Default::default() };
        for kernel in [KernelChoice::Pull, KernelChoice::InPlace] {
            let r = run_distributed_with(&cavity().with_kernel(kernel), 2, 1, 5, &[], cfg);
            assert!(!r.has_nan());
            assert_eq!(run_bits(&r), CAVITY, "cavity, overlap={overlap}, {kernel:?}");
        }
        let r = run_distributed_with(&inplace, 2, 1, 5, &[], cfg);
        assert!(!r.has_nan());
        assert_eq!(run_bits(&r), CHANNEL, "channel, overlap={overlap}");
    }
}

/// A migration payload cut short on the wire must come back as a typed
/// error on the receiver — it used to be an `expect` on the restore.
#[test]
fn truncated_migration_payload_is_a_typed_error() {
    let scenario =
        Scenario::lid_driven_cavity(16, 1, 0.05, 0.08).with_kernel(KernelChoice::InPlace);
    let run_plan = plan_run(&scenario, 2);
    let src = run_plan.forest.blocks[0].rank;
    let dst = 1 - src;
    let plan = moving(&run_plan, |_| dst);
    let id = plan.migrations().next().expect("a block moves").id;

    let results = World::run(2, |mut comm| {
        if comm.rank() == src {
            // Stand in for the sender: the right tag, half the bytes.
            let block = scenario.build_block(&run_plan.views[src as usize].blocks[0]);
            let mut payload = save_block_full(&block);
            payload.truncate(payload.len() / 2);
            comm.send(dst, MIGRATION_TAG_BASE | id, payload);
            None
        } else {
            let mut lp = RankLoop::new(comm, &run_plan, &scenario, 1, DriverConfig::default());
            Some(execute_migrations(&mut lp, &plan, None))
        }
    });
    assert_eq!(
        results[dst as usize],
        Some(Err(MigrationError::Restore { id, error: RestoreError::Truncated }))
    );
}

/// A plan whose records name the wrong owner of a block is a typed error on
/// the rank it names as the source, which does not hold the block; the true
/// owner keeps it and nobody waits for a transfer that is never sent.
#[test]
fn plan_naming_the_wrong_owner_is_a_typed_error() {
    let scenario = skewed_scenario();
    let run_plan = plan_run(&scenario, 2);
    let held = |rank: u32| run_plan.views[rank as usize].blocks.len();
    let victim = run_plan.views[0].blocks[0].id;
    // The records say rank 1 holds `victim` and the plan gives it to rank 0,
    // where it already is: one migration, from a rank without the block.
    let mut plan = moving(&run_plan, |b| b.rank);
    let i = plan.records.iter().position(|r| r.id == victim.pack()).expect("a record");
    plan.records[i].owner = 1;
    let moves: Vec<Migration> = plan.migrations().collect();
    assert_eq!(moves, [Migration { id: victim.pack(), from: 1, to: 0 }]);

    let results = World::run(2, |comm| {
        let mut lp = RankLoop::new(comm, &run_plan, &scenario, 1, DriverConfig::default());
        let out = execute_migrations(&mut lp, &plan, None);
        (out, lp.blocks().len())
    });
    assert_eq!(results[1].0, Err(MigrationError::NotHeld(victim.pack())));
    assert_eq!(results[0], (Ok(Default::default()), held(0)), "the owner keeps its blocks");
}

/// A forest written to the §2.2 binary format and loaded back drives an
/// identical distribution (the "setup on one machine, simulate on
/// another" workflow).
#[test]
fn forest_file_roundtrip_preserves_distribution() {
    let scenario = Scenario::lid_driven_cavity(24, 2, 0.05, 0.1);
    let mut forest = scenario.make_forest(4);
    morton_balance(&mut forest, 4);
    let data = file::save(&forest);
    let loaded = file::load(&data).expect("load");
    let views_a = distribute(&forest);
    let views_b = distribute(&loaded);
    assert_eq!(views_a.len(), views_b.len());
    for (a, b) in views_a.iter().zip(&views_b) {
        assert_eq!(a.rank, b.rank);
        assert_eq!(a.blocks.len(), b.blocks.len());
        for (ba, bb) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(ba.id, bb.id);
            assert_eq!(ba.coords, bb.coords);
            assert_eq!(ba.links, bb.links);
        }
    }
}

/// A full-state block checkpoint (`save_block_full`) taken mid-run
/// captures *everything* the dynamics depend on: a restored copy stepped
/// in lockstep with the original stays bitwise identical.
#[test]
fn block_checkpoint_roundtrip_resumes_bitwise() {
    let s = Scenario::lid_driven_cavity(12, 1, 0.06, 0.08);
    let views = distribute(&s.make_forest(1));
    let mut block = s.build_block(&views[0].blocks[0]);
    let rel = s.relaxation;
    for _ in 0..5 {
        block.apply_boundaries();
        block.stream_collide(rel);
    }
    let snap = save_block_full(&block);
    let mut restored = restore_block_full(&snap, s.boundary).expect("restore");
    for _ in 0..5 {
        block.apply_boundaries();
        block.stream_collide(rel);
        restored.apply_boundaries();
        restored.stream_collide(rel);
    }
    assert_eq!(save_block_full(&block), save_block_full(&restored));
}

/// Graph-partitioner balancing also yields a correct distributed run
/// (different block-to-rank mapping, same physics).
#[test]
fn graph_balanced_sphere_runs_clean() {
    let sdf = Arc::new(AnalyticSdf::Sphere { center: vec3(0.0, 0.0, 0.0), radius: 1.0 });
    let setup = setup_domain("sphere", sdf, 0.09, [8, 8, 8], 3, Balancer::Graph, 0.06, [0.0; 3]);
    let r = run_distributed(&setup.scenario, 3, 1, 15);
    assert!(!r.has_nan());
    assert!(r.mass_drift().abs() < 1e-10, "closed sphere must conserve mass");
    assert!(r.total_stats().fluid_cells > 0);
}

/// The stability pin: an impulsively started cylinder wake at
/// τ_e ≈ 0.524 (ν = 0.008, D = 8, Re = 100). SRT loses stability within
/// a few hundred steps at this sharpness; MRT + LES runs the same
/// configuration to a finite, sane state. This is the regime the
/// validation matrix measures the Strouhal number in (MRT family only —
/// `trillium_bench::validation::is_supported`).
#[test]
fn mrt_les_survives_where_srt_diverges() {
    let make = |op: Collision| {
        Scenario::von_karman([64, 32, 2], [2, 2, 2], 0.008, 0.1, 8.0).with_collision(op)
    };
    let cfg = || DriverConfig { obs: ObsConfig::off(), ..Default::default() };

    // Sane = finite, positive, and bounded by a generous multiple of the
    // uniform-inflow kinetic energy. A blown-up run lands at ±1e200-ish
    // (or NaN) long before the energy overflows to infinity.
    let domain_energy = 0.5 * 0.1 * 0.1 * (64.0 * 32.0 * 2.0);
    let sane = |e: f64| e.is_finite() && e > 0.0 && e < 10.0 * domain_energy;

    let srt = run_distributed_with(&make(Collision::Srt), 4, 1, 1000, &[], cfg());
    assert!(
        !sane(srt.kinetic_energy_final()),
        "SRT unexpectedly stable (energy {:e}); the stability pin is vacuous",
        srt.kinetic_energy_final()
    );

    let les = run_distributed_with(&make(Collision::MrtLes), 4, 1, 1000, &[], cfg());
    let e = les.kinetic_energy_final();
    assert!(sane(e), "MRT+LES energy {e:e}");
}

/// A synchronous run of the skewed scenario under the rebalance hook.
fn run_rebalanced(rebalance: RebalanceConfig) -> RunResult {
    let cfg = RunConfig { rebalance: Some(rebalance), ..RunConfig::default() };
    run_distributed_composed(&skewed_scenario(), 2, 1, STEPS, &[], &cfg).expect("unfaulted run")
}

/// 8 blocks on 2 ranks with ~90 % of the workload on rank 0 (7 blocks
/// against 1).
fn skewed_scenario() -> Scenario {
    Scenario::lid_driven_cavity(16, 2, 0.06, 0.08).with_skewed_balance(0.9)
}

const STEPS: u64 = 40;

fn rebalance_cfg() -> RebalanceConfig {
    RebalanceConfig {
        every_n_steps: 5,
        threshold: 1.3,
        hysteresis: 2,
        ..RebalanceConfig::default()
    }
}

#[test]
fn skewed_run_migrates_and_improves_balance() {
    // Baseline: identical skewed run, monitoring only (infinite threshold
    // means the detector never fires, so nothing ever moves).
    let baseline =
        run_rebalanced(RebalanceConfig { every_n_steps: 5, ..RebalanceConfig::monitor_only() });
    assert_eq!(baseline.total_migrations(), 0);
    let baseline_ratio = baseline.final_load_ratio().expect("baseline measured no epochs");
    assert!(
        baseline_ratio > 1.4,
        "skewed setup should measure heavy imbalance, got {baseline_ratio}"
    );

    let result = run_rebalanced(rebalance_cfg());

    // At least one block physically moved between ranks.
    assert!(result.total_migrations() >= 1, "no migration happened");
    assert!(result.rebalance_count() >= 1);

    // Migration moved state bit-for-bit: global mass is conserved to
    // round-off and nothing went non-finite.
    assert!(!result.has_nan());
    assert!(result.mass_drift().abs() <= 1e-10, "mass drift {} exceeds 1e-10", result.mass_drift());

    // Every cell was swept every step, no matter who owned its block.
    assert_eq!(result.total_stats().cells, 16 * 16 * 16 * STEPS);

    // The measured load ratio at the end beats the do-nothing baseline.
    let final_ratio = result.final_load_ratio().expect("rebalanced run measured no epochs");
    assert!(
        final_ratio < baseline_ratio,
        "final ratio {final_ratio} not better than baseline {baseline_ratio}"
    );

    // The history shows the trigger path: imbalanced epochs first, then a
    // migration round.
    let history = result.imbalance_history();
    assert!(history.len() == (STEPS / 5) as usize);
    let first_migrating_epoch = result.ranks[0]
        .rebalance
        .as_ref()
        .unwrap()
        .epochs
        .iter()
        .position(|e| e.migrated > 0)
        .expect("no epoch migrated");
    assert!(first_migrating_epoch >= 1, "hysteresis of 2 cannot fire on the first epoch");
}
