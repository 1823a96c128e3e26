//! Robust summary statistics for noisy wall-clock measurements.
//!
//! Single-shot numbers conflate engine speed with host noise: a page-cache
//! miss or a scheduler preemption shows up as a phantom regression.
//! Repeated timings are summarized by the **median** (robust location) and
//! the **MAD** (median absolute deviation — robust spread).

/// Median of `xs`. Empty input returns 0.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation of `xs` around its median.
pub fn mad(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// A summarized sample set: the raw samples plus their median and MAD.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The individual timed-iteration values, in measurement order.
    pub samples: Vec<f64>,
    /// Robust location.
    pub median: f64,
    /// Robust spread.
    pub mad: f64,
}

impl Summary {
    /// Summarize `samples` (median + MAD).
    pub fn of(samples: Vec<f64>) -> Summary {
        let median = median(&samples);
        let mad = mad(&samples);
        Summary {
            samples,
            median,
            mad,
        }
    }

    /// MAD relative to the median — a dimensionless noise figure. 0 when
    /// the median is 0.
    pub fn rel_mad(&self) -> f64 {
        if self.median.abs() < f64::EPSILON {
            0.0
        } else {
            self.mad / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        // One wild outlier moves the mean by >20x but the MAD barely.
        let clean = [100.0, 101.0, 99.0, 100.5, 99.5];
        let spiked = [100.0, 101.0, 99.0, 100.5, 2500.0];
        assert!(mad(&clean) <= 1.0);
        assert!(mad(&spiked) <= 1.0);
        assert_eq!(median(&spiked), 100.5);
    }

    #[test]
    fn rel_mad_dimensionless() {
        let s = Summary::of(vec![200.0, 220.0, 180.0]);
        assert_eq!(s.median, 200.0);
        assert_eq!(s.mad, 20.0);
        assert!((s.rel_mad() - 0.1).abs() < 1e-12);
    }
}
