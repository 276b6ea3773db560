//! Order statistics of small samples.

/// Linear-interpolated percentile `p` (0..=1) of `values` (any order);
/// 0.0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Best, median and quartiles of the values one metric took over the
/// rounds of an invocation.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Best over rounds: the minimum when lower is better, else the
    /// maximum. Contention on a shared host only ever adds time, so the
    /// best round is the least disturbed one (the STREAM convention).
    pub best: f64,
    /// Median over rounds.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of rounds.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `lower_is_better` picks which end is best.
    pub fn of(values: &[f64], lower_is_better: bool) -> Summary {
        let pick = if lower_is_better { f64::min } else { f64::max };
        Summary {
            best: values.iter().copied().reduce(pick).unwrap_or(0.0),
            median: percentile(values, 0.5),
            q1: percentile(values, 0.25),
            q3: percentile(values, 0.75),
            n: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [5.0, 2.0, 3.0, 4.0, 1.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        assert_eq!(percentile(&v, 0.95), 4.8);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn best_follows_direction() {
        let s = Summary::of(&[3.0, 1.0, 2.0], true);
        assert_eq!((s.best, s.median, s.n), (1.0, 2.0, 3));
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0], false).best, 3.0);
    }
}
