//! Order statistics over timing samples, and the samples themselves.

/// The percentile the 2-core timings report; single-thread timings report
/// their median.
///
/// This host's second vCPU is at times descheduled for milliseconds at a
/// stretch by other tenants; a 2-core solve that meets such a stretch spins
/// at its barrier until the vCPU returns. Over a few seconds, the median
/// 2-core solve time then moved by up to 4x while the 5th percentile of the
/// same samples moved by under 5 %: it reads the program's own speed in the
/// moments the host runs both of its threads. For minutes at a time the
/// host runs them one after the other, and no statistic recovers the 2-core
/// speed; so the 2-core timings are per-layer metrics, without a bound.
pub const LOW_PERCENTILE: f64 = 5.0;

/// A statistic of a set of samples: [`Samples::median`] or [`Samples::low`].
pub type Stat = fn(&Samples) -> f64;

/// Timings of one quantity over a run.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// The [`LOW_PERCENTILE`]th percentile; NaN when empty.
    pub fn low(&self) -> f64 {
        percentile(&self.0, LOW_PERCENTILE)
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Median (mean of the middle pair for even counts); NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Linear-interpolated percentile `q` in `0..=100`; NaN when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive values; NaN when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), 5.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn low_percentile_ignores_a_slow_tail() {
        let mut s = Samples::default();
        // Three fast samples among 21: the 5th percentile is the second.
        for i in 0..21 {
            s.push(if i < 3 { 1.0 + i as f64 / 10.0 } else { 4.0 });
        }
        assert_eq!(s.len(), 21);
        assert!((s.low() - 1.1).abs() < 1e-12, "{}", s.low());
        assert_eq!(s.median(), 4.0);
    }
}
