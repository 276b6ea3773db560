//! Tier 3: the split-loop row kernel on Structure-of-Arrays fields.
//!
//! The paper (§4.1) describes the transformation enabling vectorization:
//! the SoA layout stores all PDFs of one direction contiguously, and the
//! innermost loop is *split*, performing the update "in a by-direction
//! rather than a by-cell manner", which "significantly reduces the number
//! of concurrent load/store streams". This module implements that
//! transformation once, over one contiguous *x-run* of cells. The x-run is
//! the only primitive, and one enumeration (`for_each_run`) yields the
//! runs of both drivers: the full rows of a dense [`Region`] or the
//! clipped spans of a sparse block's [`RowIntervals`], on box storage or
//! a row store. The pull driver `sweep_pull` streams them from `src` to
//! `dst`, the in-place driver of [`crate::inplace`] updates them in one
//! buffer at either storage parity.
//!
//! What happens to a run's streamed-in populations is the collision
//! operator's business (`Collide`). The pair-form operators, TRT and
//! SRT, run
//!
//! 1. a *moment pass* accumulating density and momentum into row scratch
//!    buffers, split by direction into three sub-passes of six or seven
//!    load streams each (plus the four scratch streams),
//! 2. a *finalize pass* turning momenta into velocities and the shared
//!    equilibrium base term,
//! 3. a *pair pass* per antiparallel direction pair applying the collision
//!    and storing both destinations.
//!
//! All inner loops are branch-free, stride-1 loops over `f64` slices.
//! Because the pull offset of a direction is constant along a row,
//! "streaming" is expressed as reading each source line at a shifted base
//! index — no gather instructions are needed. The MRT family
//! ([`crate::mrt`]) collides each cell of the run with its one per-cell
//! routine instead.
//!
//! # One body, one instance per instruction set
//!
//! The paper hand-vectorized this loop nest because in 2013 the
//! transformation "couldn't be done automatically by any of the
//! compilers". On split loops over SoA slices today's LLVM does it, given
//! one thing: the `fma` target feature. Every `f64::mul_add` compiled
//! *without* it is a call into libm's `fma()`, which is slow by itself and
//! keeps the loop scalar. So each driver is written once and instantiated
//! twice per operator (`per_isa!`): plain — the portable tier, runs on any
//! host and is the bitwise oracle — and inside a
//! `#[target_feature(enable = "avx2", enable = "fma")]` function behind
//! [`crate::avx::available`]. `mul_add` is the exactly rounded fused
//! operation either way and vectorization keeps each cell's operation
//! sequence, so the two instances agree bit for bit — what the backend
//! equivalence gates pin — and so does any partition of a row into runs.
//! This module's public sweeps are the portable instance; [`crate::avx`]
//! exposes the AVX2+FMA one.

use crate::inplace::InplaceRun;
use crate::stats::SweepStats;
use std::cell::RefCell;
use trillium_field::{PdfField, Region, RowIntervals, RowTable, Shape, SoaPdfField};
use trillium_lattice::d3q19::{C, PAIRS, Q, W as WEIGHTS};
use trillium_lattice::{Relaxation, D3Q19};

/// Per-row scratch of the split loops: the moments of the current x-run.
#[derive(Default)]
pub(crate) struct RowScratch {
    /// Density per cell of the current run.
    rho: Vec<f64>,
    /// Velocity x (momentum during accumulation).
    ux: Vec<f64>,
    /// Velocity y.
    uy: Vec<f64>,
    /// Velocity z.
    uz: Vec<f64>,
    /// Shared equilibrium base term `1 − 1.5 u²`.
    base: Vec<f64>,
}

thread_local! {
    /// One scratch per thread, kept across sweeps so the hot path does not
    /// allocate (one region sweep per block and step, one per tile under
    /// the workgroup backend).
    static SCRATCH: RefCell<RowScratch> = RefCell::default();
}

impl RowScratch {
    /// Takes this thread's scratch, grown to hold runs of `n` cells. Hand
    /// it back with [`RowScratch::put_back`]; one that is not (a panicking
    /// sweep) is simply allocated again.
    pub(crate) fn take(n: usize) -> RowScratch {
        let mut scr = SCRATCH.take();
        if scr.rho.len() < n {
            let RowScratch { rho, ux, uy, uz, base } = &mut scr;
            for v in [rho, ux, uy, uz, base] {
                v.resize(n, 0.0);
            }
        }
        scr
    }

    /// Returns the scratch to its thread for the next sweep.
    pub(crate) fn put_back(self) {
        SCRATCH.set(self);
    }
}

/// Instruction set a sweep instance is compiled for.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    /// The target's baseline features; runs anywhere.
    Portable,
    /// AVX2+FMA; runs the portable instance on a CPU without them.
    Avx2Fma,
}

/// Instantiates one sweep body per instruction set and defines
/// `fn name<P: Bound>(isa: Isa, args..)` selecting between the instances
/// (the type parameter is optional).
macro_rules! per_isa {
    ($(#[$doc:meta])* $vis:vis fn $name:ident $(<$p:ident: $bound:path>)?
        ($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty $body:block) => {
        $(#[$doc])*
        $vis fn $name$(<$p: $bound>)?(isa: $crate::soa::Isa, $($arg: $ty),*) -> $ret {
            #[cfg(target_arch = "x86_64")]
            if isa == $crate::soa::Isa::Avx2Fma && $crate::avx::available() {
                #[target_feature(enable = "avx2", enable = "fma")]
                fn avx2_fma$(<$p: $bound>)?($($arg: $ty),*) -> $ret $body
                // SAFETY: the CPU was just checked to support AVX2 and FMA,
                // the only requirement of calling the instance.
                return unsafe { avx2_fma($($arg),*) };
            }
            let _ = isa; // read on x86-64 only
            $body
        }
    };
}
pub(crate) use per_isa;

/// A collision operator as the row drivers see it: what happens to the
/// streamed-in populations of one x-run. Both forms take one run per
/// direction, all of the run's length.
pub(crate) trait Collide: Copy {
    /// Pull form: `s[q]` holds the streamed-in `f_q`, `d[q]` receives the
    /// post-collision `f̃_q`.
    fn pull_run(self, s: &[&[f64]; Q], d: &mut [&mut [f64]; Q], scr: &mut RowScratch);

    /// In-place form: the run of `f_q` receives `f̃_q̄` — the two
    /// populations of an antiparallel pair swap slots (see [`InplaceRun`]).
    fn inplace_run(self, run: &mut InplaceRun, scr: &mut RowScratch);
}

/// The collision of one cell, direction pair by direction pair — where
/// the TRT and SRT arithmetic is written for the SoA tiers. Every pair
/// form is a [`Collide`] through the moment and pair passes below.
pub(crate) trait PairCollide: Copy {
    /// Post-collision value of the rest direction.
    fn rest(self, f0: f64, rho: f64, base: f64) -> f64;

    /// Post-collision values of the antiparallel pair `(a, ā)` — `cw` is
    /// the velocity `c_a` and its weight — from the streamed-in `fa`, `fb`.
    fn pair(
        self,
        fa: f64,
        fb: f64,
        cw: ([f64; 3], f64),
        rho: f64,
        u: [f64; 3],
        base: f64,
    ) -> (f64, f64);
}

/// Two-relaxation-time collision (SRT when the rates are equal).
#[derive(Copy, Clone)]
pub(crate) struct Trt {
    le: f64,
    lo: f64,
}

impl Trt {
    pub(crate) fn new(rel: Relaxation) -> Self {
        Trt { le: rel.lambda_e, lo: rel.lambda_o }
    }
}

impl PairCollide for Trt {
    #[inline(always)]
    fn rest(self, f0: f64, rho: f64, base: f64) -> f64 {
        // Purely even relaxation.
        let feq = WEIGHTS[0] * (rho * base);
        self.le.mul_add(f0 - feq, f0)
    }

    #[inline(always)]
    fn pair(
        self,
        fa: f64,
        fb: f64,
        (c, w): ([f64; 3], f64),
        rho: f64,
        u: [f64; 3],
        base: f64,
    ) -> (f64, f64) {
        let cu = c[2].mul_add(u[2], c[1].mul_add(u[1], c[0] * u[0]));
        let t = w * rho;
        let feq_even = t * (4.5f64.mul_add(cu * cu, base));
        let feq_odd = (3.0 * t) * cu;
        let d_even = self.le * (0.5 * (fa + fb) - feq_even);
        let d_odd = self.lo * (0.5 * (fa - fb) - feq_odd);
        (fa + (d_even + d_odd), fb + (d_even - d_odd))
    }
}

/// Single-relaxation-time collision in its by-direction form (the "SRT"
/// curves of Fig. 3): each direction relaxes towards its own equilibrium.
#[derive(Copy, Clone)]
pub(crate) struct Srt {
    omega: f64,
    om1: f64,
}

impl Srt {
    pub(crate) fn new(rel: Relaxation) -> Self {
        assert!(rel.is_srt(), "SRT kernel requires equal relaxation rates");
        let omega = -rel.lambda_e;
        Srt { omega, om1: 1.0 - omega }
    }

    #[inline(always)]
    fn relax(self, f: f64, c: [f64; 3], tw: f64, rho: f64, u: [f64; 3], base: f64) -> f64 {
        let cu = c[2].mul_add(u[2], c[1].mul_add(u[1], c[0] * u[0]));
        let inner = 3.0f64.mul_add(cu, 4.5f64.mul_add(cu * cu, base));
        self.om1.mul_add(f, (tw * rho) * inner)
    }
}

impl PairCollide for Srt {
    #[inline(always)]
    fn rest(self, f0: f64, rho: f64, base: f64) -> f64 {
        // cu = 0 for the rest direction, so the bracket is the base term.
        self.om1.mul_add(f0, ((self.omega * WEIGHTS[0]) * rho) * base)
    }

    #[inline(always)]
    fn pair(
        self,
        fa: f64,
        fb: f64,
        (c, w): ([f64; 3], f64),
        rho: f64,
        u: [f64; 3],
        base: f64,
    ) -> (f64, f64) {
        let tw = self.omega * w;
        // c_ā = −c_a, spelled `0 − c` so that a zero component is +0.0 as
        // in the velocity table.
        let cb = [0.0 - c[0], 0.0 - c[1], 0.0 - c[2]];
        (self.relax(fa, c, tw, rho, u, base), self.relax(fb, cb, tw, rho, u, base))
    }
}

impl<P: PairCollide> Collide for P {
    #[inline(always)]
    fn pull_run(self, s: &[&[f64]; Q], d: &mut [&mut [f64]; Q], scr: &mut RowScratch) {
        let m = moment_passes(s, d[0].len(), scr);
        rest_pass(self, s[0], d[0], m);
        for &(a, b) in PAIRS.iter() {
            // Split the run table to borrow two runs at once.
            let (lo, hi) = d.split_at_mut(b);
            pair_pass(self, velocity_weight(a), s[a], s[b], lo[a], hi[0], m);
        }
    }

    #[inline(always)]
    fn inplace_run(self, run: &mut InplaceRun, scr: &mut RowScratch) {
        let mut s: [&[f64]; Q] = [&[]; Q];
        for (q, s) in s.iter_mut().enumerate() {
            *s = run.run(q);
        }
        let m = moment_passes(&s, run.len(), scr);
        rest_pass_inplace(self, run.rest(), m);
        for &(a, b) in PAIRS.iter() {
            let (pa, pb) = run.pair(a, b);
            pair_pass_inplace(self, velocity_weight(a), pa, pb, m);
        }
    }
}

/// Pull offset of every direction in linear-index units: the value of
/// direction `q` streaming into cell `i` sits at `i − off[q]`.
#[inline(always)]
pub(crate) fn pull_offsets(shape: &Shape) -> [isize; Q] {
    let (sy, sz) = (shape.stride_y() as isize, shape.stride_z() as isize);
    std::array::from_fn(|q| C[q][0] as isize + C[q][1] as isize * sy + C[q][2] as isize * sz)
}

/// Velocity (as `f64`) and weight of direction `q`.
#[inline(always)]
fn velocity_weight(q: usize) -> ([f64; 3], f64) {
    (C[q].map(f64::from), WEIGHTS[q])
}

/// The finished moments of one x-run, as parallel slices of its length.
#[derive(Copy, Clone)]
struct Moments<'a> {
    rho: &'a [f64],
    ux: &'a [f64],
    uy: &'a [f64],
    uz: &'a [f64],
    /// Shared equilibrium base term `1 − 1.5 u²`.
    base: &'a [f64],
}

// Every pass below takes each stream it writes (and each field stream it
// reads) as its own slice parameter: a `&mut [f64]` parameter is what tells
// the compiler that nothing else the loop touches overlaps it, so the loop
// vectorizes without a run-time overlap test — which would cost more than
// the loop itself on the short runs of a sparse block.

/// Defines one sub-pass of the moment pass: `fn $name(s.., rho, ux, uy,
/// uz)` adds the listed directions, in order, onto the four scratch
/// streams (`[true]`: starts the sums from zero instead of reading them).
/// Zero velocity components are skipped, not multiplied — decided when the
/// pass is compiled, the directions being constants. Per cell the sums see
/// their terms in direction order 0..19 however the directions are grouped;
/// the grouping only bounds the concurrent load streams (§4.1) while
/// keeping the number of short loops per run small.
macro_rules! accumulate_pass {
    (fn $name:ident[$init:literal]($($s:ident = $q:literal),*)) => {
        #[inline(always)]
        #[allow(clippy::too_many_arguments)]
        fn $name(
            $($s: &[f64],)*
            rho: &mut [f64],
            ux: &mut [f64],
            uy: &mut [f64],
            uz: &mut [f64],
        ) {
            let n = rho.len();
            $(let $s = &$s[..n];)*
            let (ux, uy, uz) = (&mut ux[..n], &mut uy[..n], &mut uz[..n]);
            for x in 0..n {
                let (mut r, mut jx, mut jy, mut jz) =
                    if $init { (0.0, 0.0, 0.0, 0.0) } else { (rho[x], ux[x], uy[x], uz[x]) };
                $(
                    let v = $s[x];
                    r += v;
                    if C[$q][0] != 0 {
                        jx = f64::from(C[$q][0]).mul_add(v, jx);
                    }
                    if C[$q][1] != 0 {
                        jy = f64::from(C[$q][1]).mul_add(v, jy);
                    }
                    if C[$q][2] != 0 {
                        jz = f64::from(C[$q][2]).mul_add(v, jz);
                    }
                )*
                rho[x] = r;
                ux[x] = jx;
                uy[x] = jy;
                uz[x] = jz;
            }
        }
    };
}

accumulate_pass!(fn accumulate_0_6[true](s0 = 0, s1 = 1, s2 = 2, s3 = 3, s4 = 4, s5 = 5, s6 = 6));
accumulate_pass!(fn accumulate_7_12[false](s7 = 7, s8 = 8, s9 = 9, s10 = 10, s11 = 11, s12 = 12));
accumulate_pass!(fn accumulate_13_18[false](s13 = 13, s14 = 14, s15 = 15, s16 = 16, s17 = 17, s18 = 18));

/// Finalize pass: momenta to velocities and the equilibrium base term.
#[inline(always)]
fn finalize(rho: &[f64], ux: &mut [f64], uy: &mut [f64], uz: &mut [f64], base: &mut [f64]) {
    let n = rho.len();
    let (ux, uy, uz, base) = (&mut ux[..n], &mut uy[..n], &mut uz[..n], &mut base[..n]);
    for x in 0..n {
        let inv = 1.0 / rho[x];
        let vx = ux[x] * inv;
        let vy = uy[x] * inv;
        let vz = uz[x] * inv;
        ux[x] = vx;
        uy[x] = vy;
        uz[x] = vz;
        let u2 = vz.mul_add(vz, vy.mul_add(vy, vx * vx));
        base[x] = (-1.5f64).mul_add(u2, 1.0);
    }
}

/// Moment and finalize passes over one x-run: accumulates ρ and momentum
/// of the `n` cells whose streamed-in populations of direction `q` are
/// `s[q]`, then converts to velocity and the equilibrium base term.
#[inline(always)]
fn moment_passes<'a>(s: &[&[f64]; Q], n: usize, scr: &'a mut RowScratch) -> Moments<'a> {
    let RowScratch { rho, ux, uy, uz, base } = scr;
    let (rho, ux, uy, uz, base) =
        (&mut rho[..n], &mut ux[..n], &mut uy[..n], &mut uz[..n], &mut base[..n]);
    accumulate_0_6(s[0], s[1], s[2], s[3], s[4], s[5], s[6], rho, ux, uy, uz);
    accumulate_7_12(s[7], s[8], s[9], s[10], s[11], s[12], rho, ux, uy, uz);
    accumulate_13_18(s[13], s[14], s[15], s[16], s[17], s[18], rho, ux, uy, uz);
    finalize(rho, ux, uy, uz, base);
    Moments { rho, ux, uy, uz, base }
}

/// Rest-direction pass: `d0 ← collide(s0)`.
#[inline(always)]
fn rest_pass<P: PairCollide>(op: P, s0: &[f64], d0: &mut [f64], m: Moments) {
    let n = d0.len();
    let (s0, rho, base) = (&s0[..n], &m.rho[..n], &m.base[..n]);
    for x in 0..n {
        d0[x] = op.rest(s0[x], rho[x], base[x]);
    }
}

/// Pair pass: collides the antiparallel pair `(a, ā)` — `cw` is `c_a` and
/// its weight — streamed in as `sa`, `sb` and stores both destination runs.
#[inline(always)]
fn pair_pass<P: PairCollide>(
    op: P,
    cw: ([f64; 3], f64),
    sa: &[f64],
    sb: &[f64],
    da: &mut [f64],
    db: &mut [f64],
    m: Moments,
) {
    let n = da.len();
    let (sa, sb, db) = (&sa[..n], &sb[..n], &mut db[..n]);
    let (rho, ux, uy, uz, base) = (&m.rho[..n], &m.ux[..n], &m.uy[..n], &m.uz[..n], &m.base[..n]);
    for x in 0..n {
        (da[x], db[x]) = op.pair(sa[x], sb[x], cw, rho[x], [ux[x], uy[x], uz[x]], base[x]);
    }
}

/// [`rest_pass`] on a single buffer: the slot is read, then overwritten.
#[inline(always)]
fn rest_pass_inplace<P: PairCollide>(op: P, p0: &mut [f64], m: Moments) {
    let n = p0.len();
    let (rho, base) = (&m.rho[..n], &m.base[..n]);
    for x in 0..n {
        p0[x] = op.rest(p0[x], rho[x], base[x]);
    }
}

/// [`pair_pass`] on a single buffer: the two populations of a cell are
/// read, then swap runs — `pa` holds `f_a` and receives `f̃_ā`, `pb` holds
/// `f_ā` and receives `f̃_a`.
#[inline(always)]
fn pair_pass_inplace<P: PairCollide>(
    op: P,
    cw: ([f64; 3], f64),
    pa: &mut [f64],
    pb: &mut [f64],
    m: Moments,
) {
    let n = pa.len();
    let pb = &mut pb[..n];
    let (rho, ux, uy, uz, base) = (&m.rho[..n], &m.ux[..n], &m.uy[..n], &m.uz[..n], &m.base[..n]);
    for x in 0..n {
        (pb[x], pa[x]) = op.pair(pa[x], pb[x], cw, rho[x], [ux[x], uy[x], uz[x]], base[x]);
    }
}

/// The two-field pull row: stream–collide of the `n` cells at position
/// `base`, reading direction `q`'s streamed-in run at position `from[q]`
/// of `sdirs` and writing `ddirs`.
#[inline(always)]
fn pull_row<P: Collide>(
    op: P,
    sdirs: &[&[f64]; Q],
    ddirs: &mut [&mut [f64]; Q],
    from: &[usize; Q],
    base: usize,
    n: usize,
    scr: &mut RowScratch,
) {
    // The pull-shifted source run and the destination run of every
    // direction (plain loops: they must inline into every instance).
    let mut s: [&[f64]; Q] = [&[]; Q];
    let mut d: [&mut [f64]; Q] = Default::default();
    for (q, line) in ddirs.iter_mut().enumerate() {
        s[q] = &sdirs[q][from[q]..from[q] + n];
        d[q] = &mut line[base..base + n];
    }
    op.pull_run(&s, &mut d, scr);
}

/// Calls `visit(base, from, n)` for each x-run a sweep of `region` (a
/// subset of the interior) visits — its full rows, or for a sparse block
/// the spans of `intervals` clipped against it — with `n` cells at
/// position `base` and direction `q`'s pull source run at `from[q]`;
/// returns the cells visited. On box storage `from[q]` is `base − off[q]`;
/// a row store (sparse blocks only, its table built from `intervals`)
/// looks each `(span, q)` source run up in the table, which stores it
/// whole, unless `sources` is false (then `from` is `[base; Q]`).
#[inline(always)]
pub(crate) fn for_each_run(
    shape: Shape,
    rows: Option<&RowTable>,
    intervals: Option<&RowIntervals>,
    region: &Region,
    sources: bool,
    mut visit: impl FnMut(usize, &[usize; Q], usize),
) -> usize {
    assert!(shape.ghost >= 1);
    debug_assert_eq!(region.intersect(&shape.interior()), region.clone());
    let off = pull_offsets(&shape);
    let Some(intervals) = intervals else {
        assert!(rows.is_none(), "a row store is swept by its spans");
        let n = region.x.len();
        if n == 0 {
            return 0;
        }
        for z in region.z.clone() {
            for y in region.y.clone() {
                let base = shape.idx(region.x.start, y, z);
                visit(base, &off.map(|o| (base as isize - o) as usize), n);
            }
        }
        return region.num_cells();
    };
    let mut cells = 0;
    for span in &intervals.spans {
        if !region.y.contains(&span.y) || !region.z.contains(&span.z) {
            continue;
        }
        let x_begin = span.x_begin.max(region.x.start);
        let x_end = span.x_end.min(region.x.end);
        if x_end <= x_begin {
            continue;
        }
        let n = (x_end - x_begin) as usize;
        let (base, from) = match rows {
            None => {
                let base = shape.idx(x_begin, span.y, span.z);
                (base, off.map(|o| (base as isize - o) as usize))
            }
            Some(t) => {
                let run = |c: [i8; 3]| {
                    let [cx, cy, cz] = c.map(i32::from);
                    t.run(x_begin - cx, span.y - cy, span.z - cz, n)
                };
                let base = run([0; 3]);
                (base, if sources { C.map(run) } else { [base; Q] })
            }
        };
        visit(base, &from, n);
        cells += n;
    }
    cells
}

per_isa! {
    /// The two-field pull sweep of `op` over the x-runs of `region` (a
    /// subset of the interior; see [`for_each_run`]). Returns the cells
    /// traversed. All passes are element-wise per cell, so sweeping a
    /// partition of the interior region by region produces bitwise the
    /// same PDFs as one full sweep.
    pub(crate) fn sweep_pull<P: Collide>(
        op: P,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        intervals: Option<&RowIntervals>,
        region: &Region,
    ) -> SweepStats {
        assert!(src.same_storage(dst), "pull between fields of different storage");
        let sdirs: [&[f64]; Q] = src.dirs();
        let mut ddirs: [&mut [f64]; Q] = dst.dirs_mut();
        let mut scr = RowScratch::take(region.x.len());
        let cells = for_each_run(src.shape(), src.rows(), intervals, region, true, |base, from, n| {
            pull_row(op, &sdirs, &mut ddirs, from, base, n, &mut scr)
        });
        scr.put_back();
        SweepStats::dense(cells as u64)
    }
}

/// One fused stream–collide sweep with the TRT operator on SoA fields,
/// split-loop / by-direction (the paper's "SIMD" tier, portable instance).
pub fn stream_collide_trt(
    src: &SoaPdfField<D3Q19>,
    dst: &mut SoaPdfField<D3Q19>,
    rel: Relaxation,
) -> SweepStats {
    sweep_pull(Isa::Portable, Trt::new(rel), src, dst, None, &src.shape().interior())
}

/// One fused stream–collide sweep with the SRT operator on SoA fields,
/// split-loop / by-direction (portable instance).
pub fn stream_collide_srt(
    src: &SoaPdfField<D3Q19>,
    dst: &mut SoaPdfField<D3Q19>,
    rel: Relaxation,
) -> SweepStats {
    sweep_pull(Isa::Portable, Srt::new(rel), src, dst, None, &src.shape().interior())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic;
    use trillium_field::AosPdfField;
    use trillium_lattice::MAGIC_TRT;

    fn perturbed_pair(shape: Shape) -> (SoaPdfField<D3Q19>, AosPdfField<D3Q19>) {
        let mut soa = SoaPdfField::<D3Q19>::new(shape);
        let mut aos = AosPdfField::<D3Q19>::new(shape);
        soa.fill_equilibrium(1.0, [0.01, 0.02, -0.015]);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                let v = soa.get(x, y, z, q)
                    + 1e-4 * (((x * 7 + y * 13 + z * 29 + q as i32 * 31) % 11) as f64 - 5.0);
                soa.set(x, y, z, q, v);
                aos.set(x, y, z, q, v);
            }
        }
        (soa, aos)
    }

    #[test]
    fn soa_trt_matches_generic() {
        let shape = Shape::new(6, 4, 3, 1);
        let (soa, aos) = perturbed_pair(shape);
        let rel = Relaxation::trt_from_tau(0.81, MAGIC_TRT);
        let mut d_soa = SoaPdfField::<D3Q19>::new(shape);
        let mut d_gen = AosPdfField::<D3Q19>::new(shape);
        stream_collide_trt(&soa, &mut d_soa, rel);
        generic::stream_collide_trt(&aos, &mut d_gen, rel);
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                let (a, b) = (d_soa.get(x, y, z, q), d_gen.get(x, y, z, q));
                assert!((a - b).abs() < 1e-14, "q={q} at ({x},{y},{z}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn soa_srt_matches_generic() {
        let shape = Shape::new(5, 3, 4, 1);
        let (soa, aos) = perturbed_pair(shape);
        let rel = Relaxation::srt_from_tau(0.95);
        let mut d_soa = SoaPdfField::<D3Q19>::new(shape);
        let mut d_gen = AosPdfField::<D3Q19>::new(shape);
        stream_collide_srt(&soa, &mut d_soa, rel);
        generic::stream_collide_srt(&aos, &mut d_gen, rel);
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                let (a, b) = (d_soa.get(x, y, z, q), d_gen.get(x, y, z, q));
                assert!((a - b).abs() < 1e-14, "q={q} at ({x},{y},{z}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn equilibrium_fixed_point() {
        let shape = Shape::cube(5);
        let mut src = SoaPdfField::<D3Q19>::new(shape);
        let mut dst = SoaPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.02, [0.03, 0.0, -0.01]);
        stream_collide_trt(&src, &mut dst, Relaxation::trt_from_viscosity(0.02));
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                assert!((src.get(x, y, z, q) - dst.get(x, y, z, q)).abs() < 1e-14);
            }
        }
    }
}
