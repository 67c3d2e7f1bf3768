//! The benchmark's own arithmetic: medians, tail percentiles under the
//! ten-samples-beyond rule, geometric means, and metric-name validation.

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond its rank.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The `q`-quantile (`0 < q < 1`) of `values` by the nearest-rank rule,
/// reported only if at least [`MIN_TAIL_SAMPLES`] samples lie beyond it:
/// with `n` samples the `q`-quantile is the value of rank `⌈q·n⌉`, and
/// `n − ⌈q·n⌉` samples are larger in rank. `None` when the tail is too thin.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} out of (0, 1)");
    let n = values.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The fewest samples for which [`tail_percentile`] reports quantile `q`.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = (q * n as f64).ceil() as usize;
            rank > 0 && n - rank >= MIN_TAIL_SAMPLES
        })
        .expect("some sample count satisfies the tail rule")
}

/// Geometric mean of strictly positive values. `None` when empty or when a
/// value is not positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Mean of `values`, `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p95 of 199 samples leaves 9 beyond rank 190: not reported.
        assert_eq!(tail_percentile(&ramp(199), 0.95), None);
        // 200 samples: rank 190, ten samples beyond.
        assert_eq!(tail_percentile(&ramp(200), 0.95), Some(190.0));
        assert_eq!(samples_needed(0.95), 200);
        // p99 needs a thousand.
        assert_eq!(tail_percentile(&ramp(999), 0.99), None);
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(300);
        v.reverse();
        assert_eq!(tail_percentile(&v, 0.95), Some(285.0));
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn metric_names() {
        for ok in ["setup_s", "exec.join_ms", "paper-sf0.1", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "slash/x",
            "ümlaut",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
