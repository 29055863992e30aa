//! Order statistics over host-time and simulated-time samples.

/// Median of `v` (mean of the two middle values for even lengths);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank quantile `q` of `v`; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The tail quantile a sample of `n` supports: p99 from 1000 samples
/// on, otherwise the highest quantile that leaves at least ten samples
/// beyond it (never below the median).
pub fn tail_q(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else {
        (1.0 - 10.0 / n.max(1) as f64).max(0.5)
    }
}

/// Exact-valued samples (simulated microseconds) kept as a sorted
/// multiset, so percentiles of millions of deliveries stay small.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Histogram {
    counts: std::collections::BTreeMap<u64, u64>,
    n: u64,
}

impl Histogram {
    /// Record one sample.
    pub fn add(&mut self, v: u64) {
        *self.counts.entry(v).or_insert(0) += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile `q`; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (&v, &c) in &self.counts {
            seen += c;
            if seen >= rank {
                return v;
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
        assert_eq!(tail_q(5000), 0.99);
        assert_eq!(tail_q(100), 0.9);
        assert_eq!(tail_q(12), 0.5);
    }

    #[test]
    fn histogram_matches_sorted_quantiles() {
        let mut h = Histogram::default();
        let v: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 613).collect();
        for &x in &v {
            h.add(x);
        }
        let f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(h.quantile(q) as f64, quantile(&f, q));
        }
    }
}
