//! Order statistics over samples.

/// The `q`-quantile (`q` in `[0, 1]`) with linear interpolation between
/// order statistics; sorts `xs` in place. 0 for no samples.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median of `f` over `items`.
pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    let mut xs: Vec<f64> = items.iter().map(f).collect();
    median(&mut xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut xs), 2.5);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&mut ten, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(median(&mut []), 0.0);
    }
}
