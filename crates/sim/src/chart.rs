//! Terminal rendering of the time-varying figures.
//!
//! The paper's Figures 4 and 5 are line charts of one metric against
//! application events, one curve per policy. [`render_chart`] draws the
//! same picture as ASCII art so a terminal reproduction can be eyeballed
//! against the originals without leaving the shell (the CSV output remains
//! the precise artifact).

use crate::metrics::{SamplePoint, TimeSeries};
use std::fmt::Write as _;

/// Which metric of a [`SamplePoint`] to plot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChartMetric {
    /// Unreclaimed garbage (Figure 4).
    GarbageKb,
    /// Database size: live + unreclaimed garbage (Figure 5).
    ResidentKb,
}

impl ChartMetric {
    fn value(self, p: &SamplePoint) -> f64 {
        match self {
            ChartMetric::GarbageKb => p.garbage_bytes.as_kib_f64(),
            ChartMetric::ResidentKb => p.resident_bytes.as_kib_f64(),
        }
    }

    /// Axis label.
    pub fn label(self) -> &'static str {
        match self {
            ChartMetric::GarbageKb => "unreclaimed garbage (KB)",
            ChartMetric::ResidentKb => "database size (KB)",
        }
    }
}

/// Renders labelled series as an ASCII line chart.
///
/// Each series is drawn with a unique symbol derived from its label (the
/// first character of the label not already claimed by an earlier series,
/// falling back to digits); where curves overlap, the later series wins
/// the cell. `width`/`height` are the plot area in characters (axes and
/// legend extra).
pub fn render_chart(
    series: &[(&str, &TimeSeries)],
    metric: ChartMetric,
    width: usize,
    height: usize,
) -> String {
    let width = width.clamp(16, 240);
    let height = height.clamp(4, 64);

    let max_events = series
        .iter()
        .flat_map(|(_, s)| s.points().last())
        .map(|p| p.events)
        .max()
        .unwrap_or(0);
    let max_value = series
        .iter()
        .flat_map(|(_, s)| s.points())
        .map(|p| metric.value(p))
        .fold(0.0f64, f64::max);
    if max_events == 0 || max_value <= 0.0 {
        return format!("(no data to chart for {})\n", metric.label());
    }

    let symbols = assign_symbols(series);
    let mut grid = vec![vec![' '; width]; height];
    for ((_, s), &symbol) in series.iter().zip(&symbols) {
        let mut prev_cell: Option<(usize, usize)> = None;
        for p in s.points() {
            let x = ((p.events as f64 / max_events as f64) * (width - 1) as f64).round() as usize;
            let v = metric.value(p);
            let y = ((v / max_value) * (height - 1) as f64).round() as usize;
            let row = height - 1 - y.min(height - 1);
            let col = x.min(width - 1);
            grid[row][col] = symbol;
            // Fill vertical gaps between consecutive samples so curves
            // read as lines rather than dots.
            if let Some((prow, pcol)) = prev_cell {
                if pcol != col {
                    let (lo, hi) = if prow < row { (prow, row) } else { (row, prow) };
                    for r in grid.iter_mut().take(hi).skip(lo + 1) {
                        if r[col] == ' ' {
                            r[col] = symbol;
                        }
                    }
                }
            }
            prev_cell = Some((row, col));
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "{} (max {:.0})", metric.label(), max_value);
    for (i, row) in grid.iter().enumerate() {
        let edge = if i == 0 {
            format!("{max_value:>8.0} |")
        } else {
            "         |".into()
        };
        let line: String = row.iter().collect();
        let _ = writeln!(out, "{edge}{}", line.trim_end());
    }
    let _ = writeln!(out, "       0 +{}", "-".repeat(width));
    let _ = writeln!(
        out,
        "          0 {: >w$}",
        format!("{max_events} events"),
        w = width.saturating_sub(2)
    );
    let legend: Vec<String> = series
        .iter()
        .zip(&symbols)
        .map(|((l, _), &sym)| format!("{sym} = {l}"))
        .collect();
    let _ = writeln!(out, "          {}", legend.join("   "));
    out
}

/// Picks a distinct plot symbol per series: the first character of the
/// label that no earlier series claimed, else the first free digit.
fn assign_symbols(series: &[(&str, &TimeSeries)]) -> Vec<char> {
    let mut taken: Vec<char> = Vec::new();
    for (label, _) in series {
        let mut chosen = label
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .find(|c| !taken.contains(c));
        if chosen.is_none() {
            chosen = ('0'..='9').find(|c| !taken.contains(c));
        }
        taken.push(chosen.unwrap_or('?'));
    }
    taken
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::Bytes;

    fn series(values: &[(u64, u64)]) -> TimeSeries {
        let mut ts = TimeSeries::new();
        for &(events, kb) in values {
            ts.push(SamplePoint {
                events,
                resident_bytes: Bytes::from_kib(kb),
                garbage_bytes: Bytes::from_kib(kb / 2),
                footprint: Bytes::from_kib(kb * 2),
                collections: 0,
            });
        }
        ts
    }

    #[test]
    fn renders_axes_legend_and_symbols() {
        let a = series(&[(0, 0), (500, 50), (1000, 100)]);
        let b = series(&[(0, 0), (500, 20), (1000, 30)]);
        let chart = render_chart(
            &[("Alpha", &a), ("Beta", &b)],
            ChartMetric::ResidentKb,
            40,
            10,
        );
        assert!(chart.contains("database size"));
        assert!(chart.contains("A = Alpha"));
        assert!(chart.contains("B = Beta"));
        assert!(chart.contains('A'));
        assert!(chart.contains('B'));
        assert!(chart.contains("1000 events"));
    }

    #[test]
    fn empty_series_degrade_gracefully() {
        let empty = TimeSeries::new();
        let chart = render_chart(&[("X", &empty)], ChartMetric::GarbageKb, 40, 10);
        assert!(chart.contains("no data"));
    }

    #[test]
    fn higher_curve_renders_above_lower() {
        let high = series(&[(0, 100), (1000, 100)]);
        let low = series(&[(0, 10), (1000, 10)]);
        let chart = render_chart(
            &[("High", &high), ("Low", &low)],
            ChartMetric::ResidentKb,
            40,
            12,
        );
        let h_row = chart.lines().position(|l| l.contains('H')).unwrap();
        let l_row = chart.lines().position(|l| l.contains('L')).unwrap();
        assert!(h_row < l_row, "high curve must be drawn above the low one");
    }

    #[test]
    fn colliding_labels_get_distinct_symbols() {
        let a = series(&[(0, 1), (10, 5)]);
        let b = series(&[(0, 2), (10, 6)]);
        let syms = assign_symbols(&[("MutatedPartition", &a), ("MostGarbage", &b)]);
        assert_eq!(syms[0], 'M');
        assert_ne!(syms[0], syms[1]);
        assert_eq!(syms[1], 'o', "falls to the next unclaimed letter");
        let chart = render_chart(
            &[("MutatedPartition", &a), ("MostGarbage", &b)],
            ChartMetric::ResidentKb,
            40,
            8,
        );
        assert!(chart.contains("M = MutatedPartition"));
        assert!(chart.contains("o = MostGarbage"));
    }

    #[test]
    fn all_metrics_have_labels() {
        for m in [ChartMetric::GarbageKb, ChartMetric::ResidentKb] {
            assert!(!m.label().is_empty());
        }
    }

    #[test]
    fn dimensions_are_clamped() {
        let a = series(&[(0, 1), (10, 5)]);
        // Degenerate sizes must not panic.
        let chart = render_chart(&[("A", &a)], ChartMetric::GarbageKb, 1, 1);
        assert!(chart.contains('|'));
    }
}
