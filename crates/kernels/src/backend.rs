//! Compute backends: device-shaped kernel dispatch for heterogeneous
//! nodes.
//!
//! The kernel modules of this crate implement one *tier ladder*
//! (generic → specialized → SoA split loops → in-place) for a homogeneous
//! CPU. Heterogeneous machines add a second axis: the *backend* a block's
//! sweeps execute on. Following the patch-based heterogeneous GPU–CPU
//! designs (Feichtinger et al.), every block carries a [`BackendKind`]
//! and the driver dispatches its sweeps through the matching [`Backend`]
//! implementation:
//!
//! * [`BackendKind::Portable`] — [`CpuBackend`] on the portable instance
//!   of the two SoA row drivers (pull over rows or spans in
//!   [`crate::soa`], in place in [`crate::inplace`]), for every collision
//!   operator; runs on any host.
//! * [`BackendKind::Avx2`] — [`CpuBackend`] on the same drivers and
//!   operators compiled for AVX2+FMA ([`crate::avx`]), for dense rows,
//!   sparse spans and the in-place sweeps alike; runs the portable
//!   instance when the CPU lacks AVX2+FMA ([`BackendKind::resolve`] says
//!   which one ran).
//! * [`WorkgroupBackend`] — a GPU-*style* execution shape run on the CPU
//!   for correctness: the sweep region is tiled into fixed-size
//!   work-groups (the CTA/thread-block analogue), iterated in grid
//!   order, each group swept with a group-local order by the portable
//!   region kernels. It is a tiling *order* that the region-partition
//!   guarantee below makes bitwise neutral; nothing here models what a
//!   device would cost.
//!
//! # Bitwise equivalence across backends
//!
//! All three backends produce **bitwise identical** PDFs. Two properties
//! make this hold:
//!
//! 1. the two CPU backends run *one* driver per sweep shape and one body
//!    per collision operator, whose `f64::mul_add` is the IEEE
//!    correctly-rounded fused operation whether it compiles to a `vfmadd`
//!    lane or to a libm call, and vectorization keeps each cell's
//!    operation sequence;
//! 2. sweeping any partition of the interior region by region is bitwise
//!    identical to one full sweep (the slot-ownership/element-wise
//!    argument pinned by `region_partition_is_bitwise_identical`), so
//!    the workgroup tiling cannot change results either.
//!
//! This is not a luxury: the rebalancer migrates blocks between ranks
//! that may run different backends, and the resilience layer replays steps
//! after recovery. Rounding differences between backends would fork
//! trajectories at every migration and break the driver's bitwise
//! recovery guarantees. The `equivalence` gate in CI pins the
//! equivalence across all four driver schedules.

use crate::inplace::sweep_inplace;
use crate::mrt::Mrt;
use crate::soa::{sweep_pull, Isa, Trt};
use crate::stats::SweepStats;
use crate::Collision;
use trillium_field::{PdfField, Region, RowIntervals, SoaPdfField};
use trillium_lattice::{Relaxation, D3Q19};

/// Identity of the compute backend a block's sweeps execute on.
///
/// Carried by block state the way the collision operator is: it is *not*
/// part of the checkpoint wire format and is re-stamped by whoever
/// rebuilds a block (driver, migration, recovery).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Portable split-loop SoA kernels; runs anywhere.
    Portable,
    /// The same kernels compiled for AVX2+FMA; resolves to `Portable`
    /// without AVX2+FMA. The default.
    #[default]
    Avx2,
    /// GPU-style work-group-tiled execution, emulated on the CPU.
    Workgroup,
}

impl BackendKind {
    /// All backends, portable first.
    pub const ALL: [BackendKind; 3] =
        [BackendKind::Portable, BackendKind::Avx2, BackendKind::Workgroup];

    /// Short lowercase label, as used in bench JSON and job specs.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Portable => "portable",
            BackendKind::Avx2 => "avx2",
            BackendKind::Workgroup => "workgroup",
        }
    }

    /// Parses a job-spec / CLI label. Inverse of [`BackendKind::label`].
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "portable" => Some(BackendKind::Portable),
            "avx2" => Some(BackendKind::Avx2),
            "workgroup" => Some(BackendKind::Workgroup),
            _ => None,
        }
    }

    /// The backend that actually executes on the running host:
    /// [`BackendKind::Avx2`] degrades to [`BackendKind::Portable`] when
    /// the CPU lacks AVX2+FMA. Reports must label series with the
    /// *resolved* backend so measurements are never misattributed.
    pub fn resolve(self) -> BackendKind {
        match self {
            BackendKind::Avx2 if !crate::avx::available() => BackendKind::Portable,
            b => b,
        }
    }

    /// The dispatch object for this backend.
    pub fn dispatch(self) -> &'static dyn Backend {
        match self {
            BackendKind::Portable => &PORTABLE,
            BackendKind::Avx2 => &CpuBackend(Isa::Avx2Fma),
            BackendKind::Workgroup => &WorkgroupBackend,
        }
    }
}

/// Sweep dispatch for one compute backend.
///
/// Owns every sweep shape a block needs: dense two-field pull, sparse
/// row-interval pull, and single-buffer in-place — full-interior and
/// region-restricted — for all collision operators, each through the one
/// row driver of its shape. `Srt`/`Trt` run the TRT pair form (SRT via
/// equal rates, exactly as the block layer always has); the MRT family
/// runs the shared per-cell moment-space routine on the same runs.
pub trait Backend: Sync {
    /// The identity this dispatch object implements.
    fn kind(&self) -> BackendKind;

    /// Dense two-field pull sweep restricted to `region` (a subset of the
    /// interior). Partitioning the interior into regions is bitwise
    /// identical to one full sweep.
    fn sweep_pull_region(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats;

    /// Single-buffer (AA-pattern) sweep restricted to `region`: its full
    /// rows, or the spans of `intervals` clipped against it, which a row
    /// store requires. The sweep variant follows the field's parity; the
    /// caller flips it after the last region of a step.
    fn sweep_inplace_region(
        &self,
        collision: Collision,
        f: &mut SoaPdfField<D3Q19>,
        intervals: Option<&RowIntervals>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats;

    /// Sparse row-interval pull sweep clipped to `region`. `src` and
    /// `dst` store the box, or both the row table
    /// ([`trillium_field::RowTable::pull_reads`]) of these `intervals`.
    fn sweep_sparse_region(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        intervals: &RowIntervals,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats;

    /// Dense pull sweep over the full interior.
    fn sweep_pull(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
    ) -> SweepStats {
        let region = src.shape().interior();
        self.sweep_pull_region(collision, src, dst, rel, &region)
    }

    /// In-place sweep over the full interior rows of box storage (parity
    /// contract as above).
    fn sweep_inplace(
        &self,
        collision: Collision,
        f: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
    ) -> SweepStats {
        let region = f.shape().interior();
        self.sweep_inplace_region(collision, f, None, rel, &region)
    }

    /// Sparse sweep over the full interior. Region sweeps cannot
    /// attribute fluid-ness per sub-span, so the full-sweep entry reports
    /// the exact interval totals (same convention as the sparse module).
    fn sweep_sparse(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        intervals: &RowIntervals,
        rel: Relaxation,
    ) -> SweepStats {
        let region = src.shape().interior();
        let mut stats = self.sweep_sparse_region(collision, src, dst, intervals, rel, &region);
        stats.cells = intervals.covered_cells() as u64;
        stats.fluid_cells = intervals.fluid_cells as u64;
        stats
    }
}

/// A CPU backend: the two SoA row drivers compiled for one instruction
/// set. [`BackendKind::Portable`] and [`BackendKind::Avx2`] dispatch to
/// its two values, which differ in nothing else — dense rows, sparse
/// spans and the in-place sweeps all run the same drivers and operators,
/// bit for bit (the portable value is the reference the others must
/// match).
pub struct CpuBackend(Isa);

impl CpuBackend {
    /// The pull driver with the row operator of `collision`: SRT and TRT
    /// run the pair form (SRT as equal rates), the MRT family the per-cell
    /// moment-space routine.
    fn pull(
        &self,
        collision: Collision,
        rel: Relaxation,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        intervals: Option<&RowIntervals>,
        region: &Region,
    ) -> SweepStats {
        match collision {
            Collision::Srt | Collision::Trt => {
                sweep_pull(self.0, Trt::new(rel), src, dst, intervals, region)
            }
            Collision::Mrt | Collision::MrtLes => {
                let op = Mrt::new(rel, collision.smagorinsky());
                sweep_pull(self.0, op, src, dst, intervals, region)
            }
        }
    }
}

impl Backend for CpuBackend {
    fn kind(&self) -> BackendKind {
        match self.0 {
            Isa::Portable => BackendKind::Portable,
            Isa::Avx2Fma => BackendKind::Avx2,
        }
    }

    fn sweep_pull_region(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        self.pull(collision, rel, src, dst, None, region)
    }

    fn sweep_inplace_region(
        &self,
        collision: Collision,
        f: &mut SoaPdfField<D3Q19>,
        intervals: Option<&RowIntervals>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        match collision {
            Collision::Srt | Collision::Trt => {
                sweep_inplace(self.0, Trt::new(rel), f, intervals, region)
            }
            Collision::Mrt | Collision::MrtLes => {
                let op = Mrt::new(rel, collision.smagorinsky());
                sweep_inplace(self.0, op, f, intervals, region)
            }
        }
    }

    fn sweep_sparse_region(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        intervals: &RowIntervals,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        self.pull(collision, rel, src, dst, Some(intervals), region)
    }
}

/// The portable CPU backend, which the work-groups are swept with.
const PORTABLE: CpuBackend = CpuBackend(Isa::Portable);

/// Work-group edge lengths in cells: 32 cells along x (a coalesced
/// warp-width row run) × 2 × 2 rows — 128 cells per group, the classic
/// CTA occupancy shape.
pub const WORKGROUP: [i32; 3] = [32, 2, 2];

/// GPU-style backend: the sweep region is tiled into [`WORKGROUP`]-sized
/// groups, iterated in grid order (x fastest, then y, then z — the block
/// index order of a GPU grid launch), each group swept with a
/// group-local order by the portable region kernels.
///
/// Because region partitioning is bitwise-exact for every kernel, this
/// backend is bitwise identical to the others; only its cost differs.
pub struct WorkgroupBackend;

impl WorkgroupBackend {
    /// Invokes `sweep` once per work-group tile of `region`, in grid
    /// order, merging the per-group stats.
    fn for_each_group(region: &Region, mut sweep: impl FnMut(&Region) -> SweepStats) -> SweepStats {
        let mut stats = SweepStats::default();
        let mut z = region.z.start;
        while z < region.z.end {
            let z_end = (z + WORKGROUP[2]).min(region.z.end);
            let mut y = region.y.start;
            while y < region.y.end {
                let y_end = (y + WORKGROUP[1]).min(region.y.end);
                let mut x = region.x.start;
                while x < region.x.end {
                    let x_end = (x + WORKGROUP[0]).min(region.x.end);
                    let group = Region { x: x..x_end, y: y..y_end, z: z..z_end };
                    stats.merge(sweep(&group));
                    x = x_end;
                }
                y = y_end;
            }
            z = z_end;
        }
        stats
    }
}

impl Backend for WorkgroupBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Workgroup
    }

    fn sweep_pull_region(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        Self::for_each_group(region, |group| {
            PORTABLE.sweep_pull_region(collision, src, dst, rel, group)
        })
    }

    fn sweep_inplace_region(
        &self,
        collision: Collision,
        f: &mut SoaPdfField<D3Q19>,
        intervals: Option<&RowIntervals>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        Self::for_each_group(region, |group| {
            PORTABLE.sweep_inplace_region(collision, f, intervals, rel, group)
        })
    }

    fn sweep_sparse_region(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        intervals: &RowIntervals,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        Self::for_each_group(region, |group| {
            PORTABLE.sweep_sparse_region(collision, src, dst, intervals, rel, group)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_field::{AosPdfField, CellFlags, FlagField, FlagOps, PdfField, Shape};
    use trillium_lattice::MAGIC_TRT;

    fn perturbed(shape: Shape) -> SoaPdfField<D3Q19> {
        let mut f = SoaPdfField::<D3Q19>::new(shape);
        f.fill_equilibrium(1.0, [0.02, -0.01, 0.015]);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                let v = f.get(x, y, z, q)
                    + 1e-4 * (((x * 7 + y * 13 + z * 29 + q as i32 * 31) % 17) as f64 - 8.0);
                f.set(x, y, z, q, v);
            }
        }
        f
    }

    fn rel_for(c: Collision) -> Relaxation {
        match c {
            Collision::Srt => Relaxation::srt_from_tau(0.8),
            _ => Relaxation::trt_from_tau(0.8, MAGIC_TRT),
        }
    }

    /// Every backend produces bitwise identical PDFs on the dense pull
    /// sweep, for every collision operator. Odd nx keeps the vector-tail
    /// and workgroup-tile boundaries misaligned.
    #[test]
    fn backends_agree_bitwise_on_dense_pull() {
        let shape = Shape::new(37, 6, 5, 1);
        let src = perturbed(shape);
        for collision in Collision::ALL {
            let rel = rel_for(collision);
            let mut reference: Option<SoaPdfField<D3Q19>> = None;
            for kind in BackendKind::ALL {
                let mut dst = SoaPdfField::<D3Q19>::new(shape);
                let stats = kind.dispatch().sweep_pull(collision, &src, &mut dst, rel);
                assert_eq!(stats.cells, shape.interior_cells() as u64, "{kind:?} cell count");
                match &reference {
                    None => reference = Some(dst),
                    Some(r) => {
                        assert_eq!(r.data(), dst.data(), "{kind:?}/{collision:?} deviates")
                    }
                }
            }
        }
    }

    /// Backend equality for the single-buffer scheme at both parities.
    #[test]
    fn backends_agree_bitwise_on_inplace() {
        let shape = Shape::new(35, 5, 4, 1);
        let src = perturbed(shape);
        for collision in Collision::ALL {
            let rel = rel_for(collision);
            for parity in [false, true] {
                let mut reference: Option<SoaPdfField<D3Q19>> = None;
                for kind in BackendKind::ALL {
                    let mut f = src.clone();
                    f.set_parity(parity);
                    kind.dispatch().sweep_inplace(collision, &mut f, rel);
                    match &reference {
                        None => reference = Some(f),
                        Some(r) => assert_eq!(
                            r.data(),
                            f.data(),
                            "{kind:?}/{collision:?} parity {parity} deviates"
                        ),
                    }
                }
            }
        }
    }

    /// Rows of every span length 1..=17 starting at every x offset 0..=3,
    /// so the vector/remainder cut of the row body lands on every position.
    fn span_ladder(shape: Shape) -> RowIntervals {
        let mut flags = FlagField::new(shape);
        for len in 1..=17 {
            for start in 0..=3 {
                for x in start..start + len {
                    flags.set_flags(x, len - 1, start, CellFlags::FLUID);
                }
            }
        }
        RowIntervals::build(&flags)
    }

    /// Backend equality on a sparse (row-interval) block — full sweep,
    /// the 7-region core + shell partition, and a region that
    /// cuts inside the spans — and the full-sweep stats convention.
    #[test]
    fn backends_agree_bitwise_on_sparse() {
        if !crate::avx::available() {
            println!("note: no AVX2+FMA on this host; Avx2 runs the portable instance here");
        }
        let shape = Shape::new(22, 17, 4, 1);
        let intervals = span_ladder(shape);
        assert_eq!(intervals.num_rows(), 17 * 4);
        let src = perturbed(shape);
        let cut = Region::new(2..9, 0..17, 0..4);
        for collision in Collision::ALL {
            let rel = rel_for(collision);
            let mut reference: Option<[SoaPdfField<D3Q19>; 2]> = None;
            for kind in BackendKind::ALL {
                let be = kind.dispatch();
                let mut full = SoaPdfField::<D3Q19>::new(shape);
                let stats = be.sweep_sparse(collision, &src, &mut full, &intervals, rel);
                assert_eq!(stats.fluid_cells, intervals.fluid_cells as u64, "{kind:?}");
                assert_eq!(stats.cells, intervals.covered_cells() as u64, "{kind:?}");

                let mut split = SoaPdfField::<D3Q19>::new(shape);
                let mut cells = 0;
                for r in std::iter::once(shape.interior_core(1)).chain(shape.shell_regions(1)) {
                    cells += be
                        .sweep_sparse_region(collision, &src, &mut split, &intervals, rel, &r)
                        .cells;
                }
                assert_eq!(cells, stats.cells, "{kind:?}/{collision:?}: covered once");
                assert_eq!(full.data(), split.data(), "{kind:?}/{collision:?}: partition");

                let mut clipped = SoaPdfField::<D3Q19>::new(shape);
                be.sweep_sparse_region(collision, &src, &mut clipped, &intervals, rel, &cut);
                match &reference {
                    None => reference = Some([full, clipped]),
                    Some([r_full, r_clipped]) => {
                        assert_eq!(r_full.data(), full.data(), "{kind:?}/{collision:?} deviates");
                        assert_eq!(
                            r_clipped.data(),
                            clipped.data(),
                            "{kind:?}/{collision:?} deviates on the cut region"
                        );
                    }
                }
            }
        }
    }

    /// Interior values of an AoS field in storage order.
    fn interior_values(f: &impl PdfField<D3Q19>) -> Vec<f64> {
        let it = f.shape().interior();
        it.iter()
            .flat_map(|(x, y, z)| (0..19).map(move |q| (x, y, z, q)))
            .map(|(x, y, z, q)| f.get(x, y, z, q))
            .collect()
    }

    /// One full sweep of an AoS tier (`specialized`: the D3Q19 kernel, else
    /// the generic one; the MRT family has its per-cell oracle).
    fn sweep_aos(
        specialized: bool,
        collision: Collision,
        src: &AosPdfField<D3Q19>,
        dst: &mut AosPdfField<D3Q19>,
        rel: Relaxation,
    ) {
        use crate::{d3q19, generic, mrt};
        let interior = src.shape().interior();
        match (collision, specialized) {
            (Collision::Srt, false) => _ = generic::stream_collide_srt(src, dst, rel),
            (Collision::Trt, false) => _ = generic::stream_collide_trt(src, dst, rel),
            (Collision::Srt, true) => _ = d3q19::stream_collide_srt(src, dst, rel),
            (Collision::Trt, true) => _ = d3q19::stream_collide_trt(src, dst, rel),
            (c, _) => mrt::tests::oracle(src, dst, interior.iter(), rel, c.smagorinsky()),
        }
    }

    /// The tier ladder computes one thing: both AoS tiers and every
    /// backend's pull and in-place sweep agree on the interior, for every
    /// collision operator.
    #[test]
    fn every_tier_agrees_with_the_generic_kernel() {
        let shape = Shape::cube(5);
        let soa = perturbed(shape);
        let mut aos = AosPdfField::<D3Q19>::new(shape);
        trillium_field::pdf::copy_pdf_field(&soa, &mut aos);
        for collision in Collision::ALL {
            let rel = rel_for(collision);
            let mut results = Vec::new();
            for specialized in [false, true] {
                let mut dst = AosPdfField::<D3Q19>::new(shape);
                sweep_aos(specialized, collision, &aos, &mut dst, rel);
                results.push((format!("aos specialized={specialized}"), interior_values(&dst)));
            }
            for kind in BackendKind::ALL {
                let mut dst = SoaPdfField::<D3Q19>::new(shape);
                kind.dispatch().sweep_pull(collision, &soa, &mut dst, rel);
                results.push((format!("{kind:?} pull"), interior_values(&dst)));
                // Single buffer: read the logical values through the
                // parity-mapped accessors of the rotated layout.
                let mut f = soa.clone();
                kind.dispatch().sweep_inplace(collision, &mut f, rel);
                f.set_parity(true);
                results.push((format!("{kind:?} in-place"), interior_values(&f)));
            }
            let (_, reference) = &results[0];
            for (name, values) in &results[1..] {
                for (a, b) in reference.iter().zip(values) {
                    assert!((a - b).abs() < 1e-13, "{name}/{collision:?} deviates");
                }
            }
        }
    }

    /// Sweeping the interior core plus the boundary shells must equal one
    /// full sweep *bitwise* for every backend, scheme and collision
    /// operator — not just to tolerance. The workgroup tiling depends on
    /// this exactness to stay bit-identical to the other backends.
    #[test]
    fn region_partition_is_bitwise_identical() {
        // Odd nx so the vector/remainder cut differs between full rows and
        // shell sub-rows.
        let shape = Shape::new(11, 6, 5, 1);
        let soa = perturbed(shape);
        let parts: Vec<Region> =
            std::iter::once(shape.interior_core(1)).chain(shape.shell_regions(1)).collect();
        assert_eq!(parts.len(), 7);
        let interior_cells = shape.interior_cells() as u64;
        for collision in Collision::ALL {
            let rel = rel_for(collision);
            for kind in BackendKind::ALL {
                let be = kind.dispatch();
                let mut full = SoaPdfField::<D3Q19>::new(shape);
                let mut split = SoaPdfField::<D3Q19>::new(shape);
                be.sweep_pull(collision, &soa, &mut full, rel);
                let cells: u64 = parts
                    .iter()
                    .map(|r| be.sweep_pull_region(collision, &soa, &mut split, rel, r).cells)
                    .sum();
                assert_eq!(cells, interior_cells, "{kind:?}/{collision:?} cell count");
                assert_eq!(full.data(), split.data(), "{kind:?}/{collision:?} pull differs");

                for parity in [false, true] {
                    let (mut full, mut split) = (soa.clone(), soa.clone());
                    full.set_parity(parity);
                    split.set_parity(parity);
                    be.sweep_inplace(collision, &mut full, rel);
                    for r in &parts {
                        be.sweep_inplace_region(collision, &mut split, None, rel, r);
                    }
                    assert_eq!(
                        full.data(),
                        split.data(),
                        "{kind:?}/{collision:?} in-place parity {parity} differs"
                    );
                }
            }
        }
    }

    /// The workgroup grid must traverse every cell of a region exactly
    /// once, for region offsets that don't align with the group size.
    #[test]
    fn workgroup_tiling_covers_regions_exactly_once() {
        for region in [
            Region { x: 0..33, y: 0..5, z: 0..3 },
            Region { x: 1..32, y: 3..4, z: 2..7 },
            Region { x: 0..64, y: 0..2, z: 0..2 },
            Region { x: 5..6, y: 1..2, z: 3..4 },
        ] {
            let mut cells = 0u64;
            let stats = WorkgroupBackend::for_each_group(&region, |g| {
                assert!(g.x.len() <= WORKGROUP[0] as usize);
                assert!(g.y.len() <= WORKGROUP[1] as usize);
                assert!(g.z.len() <= WORKGROUP[2] as usize);
                cells += g.num_cells() as u64;
                SweepStats::dense(g.num_cells() as u64)
            });
            assert_eq!(cells, region.num_cells() as u64);
            assert_eq!(stats.cells, region.num_cells() as u64);
        }
    }

    /// `resolve` degrades only `Avx2`, and only on hosts without
    /// AVX2+FMA; labels round-trip through `parse`.
    #[test]
    fn resolve_and_labels_round_trip() {
        for kind in BackendKind::ALL {
            let r = kind.resolve();
            if crate::avx::available() {
                assert_eq!(r, kind);
            } else {
                assert_eq!(r, if kind == BackendKind::Avx2 { BackendKind::Portable } else { kind });
            }
            assert_eq!(r.resolve(), r, "resolve must be idempotent");
            assert_eq!(BackendKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.dispatch().kind(), kind);
        }
        assert_eq!(BackendKind::parse("cuda"), None);
        assert_eq!(BackendKind::default(), BackendKind::Avx2);
    }
}
