//! Order statistics over timing samples.

/// The `q`-quantile (nearest rank) of `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q`-quantile of values truncated to whole units (the engines stamp
/// latency in whole µs): the value at the nearest rank plus where that rank
/// lies among its ties, as a histogram quantile is interpolated inside its
/// bucket. Ties are many at these sample counts, so without this a
/// percentile moves in steps of one unit and can read the same on every run.
pub fn quantile_of_whole(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    let below = sorted.partition_point(|&x| x < value);
    let ties = sorted.partition_point(|&x| x <= value) - below;
    value + ((rank - below) as f64 - 0.5) / ties as f64
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of strictly positive values; 0 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_unit_quantile_interpolates_inside_its_ties() {
        // Rank 2 of 4 ties at 7: the second quarter of [7, 8), at its middle.
        assert_eq!(quantile_of_whole(&[7.0; 4], 0.5), 7.375);
        // A lone value sits at the middle of its unit.
        assert_eq!(quantile_of_whole(&[1.0, 2.0, 9.0], 0.99), 9.5);
        assert_eq!(quantile(&[1.0, 2.0, 9.0], 0.99), 9.0);
    }
}
