//! Small statistics helpers: medians, quantiles read out of the program's
//! bucketed histograms, and a digest for comparing simulated outputs.

use simkit::{Histogram, Time};

/// Median of `xs` (mean of the middle pair for an even count); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency quantile with the sample count that supports it.
#[derive(Copy, Clone, Debug)]
pub struct Quantile {
    /// The quantile, microseconds.
    pub us: f64,
    /// Samples in the histogram.
    pub samples: u64,
    /// Samples strictly above the quantile's rank.
    pub beyond: u64,
}

/// Quantile `q` of `h`, spread by rank across the bucket that holds it.
///
/// [`Histogram::quantile`] returns the floor of that bucket, so percentiles
/// that differ by less than a bucket (about 1.6 %) read exactly the same,
/// and a tight percentile reads one value on every seed. Here the ranks
/// that share the bucket are spread evenly from its floor towards the next
/// value the histogram holds, at most the histogram's 1/64 relative error
/// above the floor.
pub fn quantile(h: &Histogram, q: f64) -> Quantile {
    let n = h.count();
    if n == 0 {
        return Quantile {
            us: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    // Value at 1-based rank `k` (the half offset keeps `ceil` exact).
    let at = |k: u64| h.quantile((k as f64 - 0.5) / n as f64).as_ps();
    let v = at(rank);
    // First rank in `lo..=n + 1` holding a value above `floor`.
    let first_above = |floor: u64, mut lo: u64| {
        let mut hi = n + 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if at(mid) > floor {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    };
    let start = v.checked_sub(1).map_or(1, |below| first_above(below, 1));
    let end = first_above(v, rank);
    let next = if end > n { h.max().as_ps() } else { at(end) };
    let top = next.min(v + v / 64).max(v);
    let share = ((rank - start) as f64 + 0.5) / (end - start) as f64;
    Quantile {
        us: Time::from_ps((v as f64 + (top - v) as f64 * share) as u64).as_us(),
        samples: n,
        beyond: n - rank,
    }
}

/// 64-bit FNV-1a over `parts`, for comparing simulated outputs.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_bytes().iter().chain(&[0xff]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interpolated_quantile_stays_inside_its_bucket() {
        let mut h = Histogram::new();
        for us in 1..=10_000u64 {
            h.record(Time::from_ns(us as f64 * 10.0));
        }
        let p99 = quantile(&h, 0.99);
        let floor = h.quantile(0.99).as_us();
        assert!(
            p99.us >= floor && p99.us <= floor * 1.02,
            "{p99:?} vs {floor}"
        );
        assert!((p99.us - 99.0).abs() / 99.0 < 0.01, "{p99:?}");
        assert_eq!(p99.beyond, 100);
        assert_eq!(quantile(&h, 0.999).beyond, 10);
    }

    #[test]
    fn percentiles_inside_one_bucket_stay_apart() {
        let hist = |step_ns: f64| {
            let mut h = Histogram::new();
            for i in 0..1000 {
                h.record(Time::from_ns(53_000.0 + i as f64 * step_ns));
            }
            h
        };
        let (a, b) = (hist(0.3), hist(0.4));
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
        assert!(quantile(&a, 0.5).us < quantile(&b, 0.5).us);
    }

    #[test]
    fn digest_separates_parts() {
        assert_ne!(digest(["ab", "c"]), digest(["a", "bc"]));
        assert_eq!(digest(["x"]), digest(["x"]));
    }
}
