//! Order statistics over repetitions, and the process's peak memory.

/// The median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One metric over the timed repetitions of a run.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Reps {
    pub fn of(values: &[f64]) -> Self {
        Self {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }
}

/// The value at fraction `q` of ascending `sorted` (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of `n` samples that still has ten samples
/// beyond it, capped at the 99th (0 when there are too few samples for
/// any tail).
pub fn tail_fraction(n: usize) -> f64 {
    if n <= 10 {
        return 0.0;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), 50);
        assert_eq!(quantile(&sorted, 0.99), 99);
        assert_eq!(quantile(&sorted, 1.0), 100);
        assert_eq!(tail_fraction(1000), 0.99);
        assert_eq!(tail_fraction(100), 0.9);
        assert_eq!(tail_fraction(5), 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
