//! Mean / standard deviation over repeated runs.
//!
//! The paper reports "means (and standard deviations where appropriate) of
//! 10 sets of simulation runs, each set with the same configuration
//! parameters but with a different random seed". [`Summary`] is that
//! aggregation (sample standard deviation, n−1 denominator).

use std::fmt;

/// Mean and sample standard deviation of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1); 0 for fewer than two samples.
    pub std_dev: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes a slice of samples. An empty slice yields all zeros.
    pub fn of(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return Self {
                mean: 0.0,
                std_dev: 0.0,
                n: 0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std_dev = if n < 2 {
            0.0
        } else {
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        };
        Self { mean, std_dev, n }
    }

    /// This summary's mean divided by `baseline`'s mean (the paper's
    /// "Relative" columns, MostGarbage = 1). Returns 0 for a zero baseline.
    pub fn relative_to(&self, baseline: &Summary) -> f64 {
        if baseline.mean == 0.0 {
            0.0
        } else {
            self.mean / baseline.mean
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} ± {:.1}", self.mean, self.std_dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev of this classic set is ~2.138.
        assert!((s.std_dev - 2.13809).abs() < 1e-4);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn degenerate_cases() {
        let empty = Summary::of(&[]);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.n, 0);
        let single = Summary::of(&[42.0]);
        assert_eq!(single.mean, 42.0);
        assert_eq!(single.std_dev, 0.0);
    }

    #[test]
    fn relative_to_baseline() {
        let a = Summary::of(&[10.0, 20.0, 30.0]);
        let b = Summary::of(&[10.0, 10.0, 10.0]);
        assert!((a.mean - 20.0).abs() < 1e-12);
        assert!((a.relative_to(&b) - 2.0).abs() < 1e-12);
        assert_eq!(a.relative_to(&Summary::of(&[])), 0.0);
    }

    #[test]
    fn display_format() {
        let s = Summary::of(&[1.0, 3.0]);
        assert_eq!(s.to_string(), "2.0 ± 1.4");
    }
}
