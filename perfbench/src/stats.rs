//! Order statistics over one run's samples.

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile `q` in `0..=1`; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Interquartile range as a share of the median.
pub fn iqr_frac(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / m
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample, and the percentile `100 (n - 10) / n` it
/// stands for. With ten samples or fewer there is no such percentile;
/// the maximum is returned with percentile 100.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n <= 10 {
        return (samples.iter().copied().fold(0.0, f64::max), 100.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples), (90.0, 90.0));
        assert_eq!(median(&samples), 50.5);
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100.0));
    }
}
