//! Order statistics over timing samples.

/// Timing samples in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    /// An empty sample set with room for `n` samples.
    pub fn with_capacity(n: usize) -> Samples {
        Samples(Vec::with_capacity(n))
    }

    /// Adds one sample.
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// True when no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum of all samples, nanoseconds.
    pub fn sum(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The `q` quantile (nearest rank), nanoseconds; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    /// Median, nanoseconds.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile, nanoseconds.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Median of a few floating-point values (set-up and recovery repeats).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut s = Samples::default();
        for v in 1..=1000 {
            s.push(v);
        }
        assert_eq!(s.p50(), 500.0);
        assert_eq!(s.p99(), 990.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
