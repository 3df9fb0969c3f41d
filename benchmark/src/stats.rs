//! Order statistics, computed the way Python's `statistics` module does so
//! that numbers printed here match a `statistics.quantiles` check.

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `n - 1` cut points dividing `values` into `n` groups, by the
/// "exclusive" method (`statistics.quantiles(values, n=n)`).
///
/// # Panics
/// Panics with fewer than two values or `n < 2`.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    assert!(n >= 2, "need at least two groups");
    let v = sorted(values);
    let ld = v.len();
    assert!(ld >= 2, "need at least two values for quantiles");
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m - j * n) as f64;
            (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
        })
        .collect()
}

/// First and third quartile.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let q = quantiles(values, 4);
    (q[0], q[2])
}

/// 90th percentile (`statistics.quantiles(values, n=10)[8]`).
pub fn p90(values: &[f64]) -> f64 {
    quantiles(values, 10)[8]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.median / quantiles(..., n=4) / quantiles(..., n=10)[8]
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantiles(&v, 4), vec![2.75, 5.5, 8.25]);
        assert!((p90(&v) - 9.9).abs() < 1e-12);
        let w = [3.0, 1.0, 2.0];
        assert_eq!(median(&w), 2.0);
        assert_eq!(quartiles(&w), (1.0, 3.0));
    }
}
