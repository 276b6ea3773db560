//! The job service's per-template cost model from measured run times.

use std::collections::HashMap;

/// Exponentially weighted moving average of a cost per key.
///
/// One sample per completed job (its wall seconds), keyed by template.
/// The EWMA absorbs timer jitter and OS noise while tracking real drift:
/// `cost ← (1−α)·cost + α·sample`, seeded with the first sample directly
/// so startup doesn't ramp from zero.
#[derive(Clone, Debug)]
pub(crate) struct EwmaCostModel {
    alpha: f64,
    costs: HashMap<u64, f64>,
}

impl EwmaCostModel {
    /// Creates a model with smoothing factor `alpha` in `(0, 1]`; higher
    /// alpha reacts faster but is noisier.
    pub(crate) fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, costs: HashMap::new() }
    }

    /// Folds one measured sample (seconds) for `key` into its cost.
    pub(crate) fn update(&mut self, key: u64, seconds: f64) {
        match self.costs.get_mut(&key) {
            Some(c) => *c += self.alpha * (seconds - *c),
            None => {
                self.costs.insert(key, seconds);
            }
        }
    }

    /// Smoothed cost of `key`, or zero if never sampled.
    pub(crate) fn cost(&self, key: u64) -> f64 {
        self.costs.get(&key).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_seeds_directly() {
        let mut m = EwmaCostModel::new(0.2);
        m.update(7, 1.0);
        assert_eq!(m.cost(7), 1.0);
    }

    #[test]
    fn ewma_converges_to_new_level() {
        let mut m = EwmaCostModel::new(0.5);
        m.update(1, 1.0);
        for _ in 0..20 {
            m.update(1, 3.0);
        }
        assert!((m.cost(1) - 3.0).abs() < 1e-4);
    }

    #[test]
    fn ewma_damps_a_single_spike() {
        let mut m = EwmaCostModel::new(0.2);
        for _ in 0..10 {
            m.update(1, 1.0);
        }
        m.update(1, 100.0);
        // One outlier moves the estimate by at most alpha * jump.
        assert!(m.cost(1) < 1.0 + 0.2 * 99.0 + 1e-9);
        assert!(m.cost(1) > 1.0);
    }

    #[test]
    fn keys_are_independent() {
        let mut m = EwmaCostModel::new(1.0);
        m.update(1, 2.0);
        m.update(2, 3.0);
        assert_eq!((m.cost(1), m.cost(2)), (2.0, 3.0));
        assert_eq!(m.cost(3), 0.0, "a key never sampled costs nothing");
    }
}
