//! Order statistics shared by the metric computations.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The `p`-quantile (0–100) by the nearest-rank method, the same rule
/// `OpenLoopReport::response_percentile` uses. Zero for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// A tail latency: the percentile used, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile (0–100).
    pub pct: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// The highest percentile with [`TAIL_BEYOND`] samples beyond it: the
/// nearest-rank `100·(n−10)/n` percentile, i.e. the eleventh-largest
/// sample. With ten samples or fewer it is the largest.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return Tail {
            pct: 100.0,
            value: values.iter().copied().fold(0.0, f64::max),
            n,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Tail {
        pct: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: sorted[n - TAIL_BEYOND - 1],
        n,
    }
}

/// Arithmetic mean; zero for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.n), (90.0, 90.0, 100));
        assert_eq!(percentile(&v, t.pct), t.value);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert_eq!(tail(&v[..5]).value, 5.0);
        assert_eq!(median(&v), 50.0);
    }
}
