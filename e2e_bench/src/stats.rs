//! Order statistics for per-call timings.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`MIN_BEYOND`] samples above it, together with the
//! sample count: a p90 over twelve calls would be the second-largest call,
//! which says more about one noisy call than about the tail.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile: the value and the percentile it stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Percentile in `(0, 100]`.
    pub pct: f64,
    /// Sample at that nearest rank.
    pub value: f64,
}

/// Nearest-rank percentile of `samples` at 1-based `rank` of `n`.
fn at_rank(sorted: &[f64], rank: usize) -> Percentile {
    let n = sorted.len();
    Percentile {
        pct: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
    }
}

fn sorted(samples: &[f64]) -> Option<Vec<f64>> {
    if samples.is_empty() || samples.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s)
}

/// The nearest-rank median (rank `⌈n/2⌉`); `None` for empty or NaN input.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples)?;
    Some(at_rank(&s, s.len().div_ceil(2)).value)
}

/// The highest nearest-rank percentile at or below `pct` that leaves at
/// least [`MIN_BEYOND`] samples strictly above its rank.
///
/// The nearest rank of `pct` is `⌈pct/100 · n⌉`; it is lowered until
/// `n − rank ≥ MIN_BEYOND`. When even the median rank fails that rule
/// (fewer than about twenty samples), the sample count supports no tail and
/// the median is returned, with `pct` saying so. `None` for empty or NaN
/// input or a `pct` outside `[50, 100]`.
pub fn supported_tail(samples: &[f64], pct: f64) -> Option<Percentile> {
    if !(50.0..=100.0).contains(&pct) {
        return None;
    }
    let s = sorted(samples)?;
    let n = s.len();
    let median_rank = n.div_ceil(2);
    let wanted = ((pct / 100.0) * n as f64).ceil() as usize;
    let rank = wanted.min(n.saturating_sub(MIN_BEYOND)).max(median_rank);
    Some(at_rank(&s, rank))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn tail_with_enough_samples_is_the_exact_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = supported_tail(&v, 90.0).unwrap();
        assert_eq!(p.value, 180.0);
        assert_eq!(p.pct, 90.0);
        // Exactly ten samples beyond rank 90 of 100.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&v, 90.0).unwrap().value, 90.0);
    }

    #[test]
    fn tail_is_lowered_until_ten_samples_lie_beyond() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let p = supported_tail(&v, 90.0).unwrap();
        assert_eq!(p.value, 40.0);
        assert_eq!(p.pct, 80.0);
        assert_eq!(v.iter().filter(|&&x| x > p.value).count(), MIN_BEYOND);
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median() {
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        let p = supported_tail(&v, 90.0).unwrap();
        assert_eq!(p.value, 6.0);
        assert_eq!(p.pct, 50.0);
        assert_eq!(supported_tail(&[7.0], 90.0).unwrap().value, 7.0);
    }

    #[test]
    fn tail_rejects_bad_input() {
        assert_eq!(supported_tail(&[], 90.0), None);
        assert_eq!(supported_tail(&[1.0, f64::NAN], 90.0), None);
        assert_eq!(supported_tail(&[1.0], 40.0), None);
        assert_eq!(supported_tail(&[1.0], 101.0), None);
    }
}
