//! Communication-hiding term of the step-time model.
//!
//! An assumption of the figure model, not a description of the driver:
//! the hiding an interior/shell split could buy on a machine with
//! asynchronous progress. Such a schedule posts all ghost sends, sweeps
//! each block's *interior core* — the cells whose pull stencil never
//! reads the ghost layer — while the messages are in flight, and only
//! then drains the network to finish the boundary shells. The driver of
//! this repository does not split a block (`trillium-core::driver`
//! sweeps whole blocks only, before the drain those that wait on no
//! message); with the split, the modeled step time is
//!
//! ```text
//! t = t_kernel + max(t_comm − t_interior, 0)      (+ overheads)
//! ```
//!
//! rather than the synchronous `t_kernel + t_comm`. For a cubic block of
//! edge `e` cells and a stencil reach of one (D3Q19 with a one-cell ghost
//! layer), the interior core holds `(e − 2)³` of the `e³` cells, so
//! `t_interior ≈ t_kernel · ((e − 2)/e)³`. The term degrades gracefully
//! exactly where it should: large blocks hide nearly all communication
//! (the fraction → 1), while the tiny blocks of deep strong scaling hide
//! almost nothing — which is why overlap does not rescue strong-scaling
//! efficiency at extreme core counts (Fig 8).

/// Fraction of a cubic block's cells in the interior core for stencil
/// reach 1: `((e − 2)/e)³`, clamped to zero for degenerate blocks.
pub fn interior_fraction(edge: usize) -> f64 {
    if edge <= 2 {
        return 0.0;
    }
    let f = (edge - 2) as f64 / edge as f64;
    f * f * f
}

/// Communication time *not* hidden by the overlapped schedule:
/// `max(t_comm − t_kernel · interior_fraction(edge), 0)`.
pub fn unhidden_comm_time(t_kernel: f64, t_comm: f64, edge: usize) -> f64 {
    (t_comm - t_kernel * interior_fraction(edge)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_fraction_shape() {
        assert_eq!(interior_fraction(2), 0.0);
        assert_eq!(interior_fraction(1), 0.0);
        let f16 = interior_fraction(16);
        let f170 = interior_fraction(170);
        assert!(f16 > 0.6 && f16 < 0.7, "{f16}");
        assert!(f170 > 0.96, "{f170}");
        assert!(f170 > f16, "larger blocks hide more");
    }

    #[test]
    fn hiding_clamps_at_zero() {
        // Interior compute longer than comm: everything hidden.
        assert_eq!(unhidden_comm_time(1.0, 0.5, 100), 0.0);
        // Tiny blocks hide nothing.
        assert_eq!(unhidden_comm_time(1.0, 0.5, 2), 0.5);
        // Partial hiding in between.
        let u = unhidden_comm_time(0.1, 0.5, 16);
        assert!(u > 0.0 && u < 0.5, "{u}");
    }
}
