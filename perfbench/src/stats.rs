//! Exact percentiles over per-operation samples. A failed or timed-out
//! operation is a sample of `f64::INFINITY`: it misses every latency
//! limit, so it can only push percentiles up, never vanish from them.

/// Latency samples of one workload, sorted once on construction.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Samples that are misses (failed or timed-out operations).
    pub fn misses(&self) -> usize {
        self.sorted.iter().filter(|v| v.is_infinite()).count()
    }

    /// Nearest-rank percentile: the smallest sample with at least `p`% of
    /// the samples at or below it. `NaN` for an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let n = self.sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1]
    }

    /// Samples strictly above the `p`th percentile: the evidence a
    /// percentile rests on (the guide asks for at least ten).
    pub fn beyond(&self, p: f64) -> usize {
        let v = self.percentile(p);
        self.sorted.iter().filter(|x| **x > v).count()
    }

    /// Mean of the samples; infinite when any is a miss.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Sum of the finite samples.
    pub fn finite_sum(&self) -> f64 {
        self.sorted.iter().filter(|v| v.is_finite()).sum()
    }
}

/// Median of a set of per-round figures (mean of the middle two for an
/// even count). `NaN` for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_samples() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(99.9), 100.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.beyond(90.0), 10);
        let odd = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(odd.percentile(50.0), 2.0);
        assert_eq!(odd.percentile(34.0), 2.0);
        assert_eq!(odd.percentile(33.0), 1.0);
    }

    #[test]
    fn misses_push_percentiles_up_and_are_counted() {
        let mut v: Vec<f64> = (1..=98).map(f64::from).collect();
        v.extend([f64::INFINITY, f64::INFINITY]);
        let s = Samples::new(v);
        assert_eq!(s.len(), 100);
        assert_eq!(s.misses(), 2);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(98.0), 98.0);
        assert!(s.percentile(99.0).is_infinite());
        assert_eq!(s.finite_sum(), (1..=98).sum::<u32>() as f64);
        assert!(s.mean().is_infinite());
        assert_eq!(Samples::new(vec![1.0, 2.0, 6.0]).mean(), 3.0);
    }

    #[test]
    fn medians_of_round_figures() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert!(Samples::default().percentile(50.0).is_nan());
    }
}
