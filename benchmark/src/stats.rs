//! The arithmetic behind every reported number: percentiles, quartiles and
//! geometric means.

/// The `p`-th percentile (`0.0..=100.0`) by linear interpolation between the
/// two closest ranks, or `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median, or `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The three quartiles exactly as Python's `statistics.quantiles(values,
/// n=4)` computes them (its default "exclusive" method), so spreads reported
/// here match the ones an external checker computes from the same runs.
/// `None` for an empty slice.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    match len {
        0 => return None,
        1 => return Some([data[0]; 3]),
        _ => {}
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// The interquartile range as a share of the median (`0.0` for a zero
/// median), or `None` for an empty slice.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some(if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() })
}

/// The geometric mean of strictly positive, finite values; `None` when the
/// slice is empty or holds any other value. The logarithms are summed in
/// sorted order, so the result does not depend on the order of `values`.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let mut logs: Vec<f64> = values.iter().map(|v| v.ln()).collect();
    logs.sort_by(f64::total_cmp);
    Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
}
