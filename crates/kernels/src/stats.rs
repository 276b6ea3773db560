//! Cell-update accounting for MLUPS / MFLUPS reporting and per-sweep
//! wall-clock timing.

/// Counters returned by every kernel sweep.
///
/// The paper (§4) distinguishes MLUPS ("million lattice cell updates per
/// second" — every cell *traversed* by the kernel, including non-fluid
/// cells) from MFLUPS (only fluid cells actually processed). A sweep
/// reports both so the harness can compute either rate.
///
/// `seconds` carries measured wall time when the caller timed the sweep
/// (kernels themselves return it as zero; the block driver fills it in).
/// The runtime rebalancer prices a block by its `cells`, not by time.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct SweepStats {
    /// Cells traversed by the kernel (the LUPS numerator).
    pub cells: u64,
    /// Fluid cells actually processed (the FLUPS numerator).
    pub fluid_cells: u64,
    /// Measured wall time of the sweep(s), if timed; zero otherwise.
    pub seconds: f64,
}

impl SweepStats {
    /// A sweep over a dense, all-fluid region of `n` cells.
    pub fn dense(n: u64) -> Self {
        SweepStats { cells: n, fluid_cells: n, seconds: 0.0 }
    }

    /// Returns the same counters with measured wall time attached.
    pub fn timed(self, seconds: f64) -> Self {
        SweepStats { seconds, ..self }
    }

    /// Accumulates another sweep's counters (and its measured time).
    pub fn merge(&mut self, other: SweepStats) {
        self.cells += other.cells;
        self.fluid_cells += other.fluid_cells;
        self.seconds += other.seconds;
    }

    /// MLUPS given the elapsed wall time of the sweep(s).
    pub fn mlups(&self, seconds: f64) -> f64 {
        self.cells as f64 / seconds / 1e6
    }

    /// MFLUPS given the elapsed wall time of the sweep(s).
    pub fn mflups(&self, seconds: f64) -> f64 {
        self.fluid_cells as f64 / seconds / 1e6
    }

    /// MFLUPS from the accumulated measured time (NaN if never timed).
    pub fn measured_mflups(&self) -> f64 {
        self.fluid_cells as f64 / self.seconds / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_stats_count_all_cells_as_fluid() {
        let s = SweepStats::dense(1000);
        assert_eq!(s.cells, 1000);
        assert_eq!(s.fluid_cells, 1000);
        assert_eq!(s.seconds, 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SweepStats { cells: 10, fluid_cells: 7, seconds: 0.5 };
        a.merge(SweepStats { cells: 5, fluid_cells: 5, seconds: 0.25 });
        assert_eq!(a, SweepStats { cells: 15, fluid_cells: 12, seconds: 0.75 });
    }

    #[test]
    fn rates() {
        let s = SweepStats::dense(2_000_000).timed(2.0);
        assert!((s.mlups(1.0) - 2.0).abs() < 1e-12);
        assert!((s.mflups(2.0) - 1.0).abs() < 1e-12);
        assert!((s.measured_mflups() - 1.0).abs() < 1e-12);
    }
}
