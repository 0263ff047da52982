//! Run-level metrics: the numbers behind every table and figure.

use pgc_types::Bytes;
use std::fmt::Write as _;

/// Aggregate results of one simulation run.
///
/// Field-for-field these are the quantities the paper's tables report:
/// application/collector/total page I/Os (Table 2), maximum storage and
/// partition count (Table 3), reclaimed garbage, actual garbage, fraction
/// and collector efficiency (Table 4), and the inputs to the connectivity
/// analysis (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunTotals {
    /// Disk page I/Os performed while the application ran.
    pub app_ios: u64,
    /// Disk page I/Os performed by the collector.
    pub gc_ios: u64,
    /// Maximum storage footprint: partitions × partition size (includes
    /// unreclaimed garbage and fragmentation — partitions are the unit of
    /// disk allocation).
    pub max_footprint: Bytes,
    /// Number of partitions at the end of the run.
    pub partitions: usize,
    /// Collections performed.
    pub collections: u64,
    /// Bytes reclaimed across all collections.
    pub reclaimed_bytes: Bytes,
    /// Objects reclaimed across all collections.
    pub reclaimed_objects: u64,
    /// Bytes of live (reachable) objects at the end of the run.
    pub final_live_bytes: Bytes,
    /// Bytes of unreclaimed garbage at the end of the run.
    pub final_garbage_bytes: Bytes,
    /// Of the final garbage, bytes retained only through remembered
    /// pointers from garbage elsewhere (nepotism / distributed garbage).
    pub final_nepotism_bytes: Bytes,
    /// Application events applied.
    pub events: u64,
}

impl RunTotals {
    /// Total page I/Os (application + collector), the paper's throughput
    /// metric.
    #[inline]
    pub fn total_ios(&self) -> u64 {
        self.app_ios + self.gc_ios
    }

    /// Total garbage ever generated: reclaimed plus still unreclaimed at
    /// the end (the paper's "Actual Garbage" row).
    #[inline]
    pub fn actual_garbage_bytes(&self) -> Bytes {
        self.reclaimed_bytes + self.final_garbage_bytes
    }

    /// Fraction of all generated garbage that was reclaimed, in percent.
    pub fn fraction_reclaimed_pct(&self) -> f64 {
        let actual = self.actual_garbage_bytes().get();
        if actual == 0 {
            0.0
        } else {
            100.0 * self.reclaimed_bytes.get() as f64 / actual as f64
        }
    }

    /// Collector efficiency: kilobytes reclaimed per collector I/O (the
    /// paper's Table 4 metric). Zero when the collector never ran.
    pub fn efficiency_kb_per_io(&self) -> f64 {
        if self.gc_ios == 0 {
            0.0
        } else {
            self.reclaimed_bytes.as_kib_f64() / self.gc_ios as f64
        }
    }
}

/// One point of the time-varying curves (Figures 4 and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplePoint {
    /// Application events applied when the sample was taken.
    pub events: u64,
    /// Database size: live + unreclaimed garbage bytes (Figure 5).
    pub resident_bytes: Bytes,
    /// Unreclaimed garbage bytes, from the oracle (Figure 4).
    pub garbage_bytes: Bytes,
    /// Storage footprint (partitions × partition size).
    pub footprint: Bytes,
    /// Collections performed so far.
    pub collections: u64,
}

/// A sampled time series over one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeSeries {
    points: Vec<SamplePoint>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample (events must be non-decreasing).
    pub fn push(&mut self, point: SamplePoint) {
        debug_assert!(
            self.points.last().is_none_or(|p| p.events <= point.events),
            "samples must be chronological"
        );
        self.points.push(point);
    }

    /// The sampled points.
    pub fn points(&self) -> &[SamplePoint] {
        &self.points
    }

    /// True when no samples were taken.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Renders the series as CSV with a header row — the regeneration
    /// format for Figures 4 and 5 (plot `garbage_kb` or `resident_kb`
    /// against `events`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("events,resident_kb,garbage_kb,footprint_kb,collections\n");
        for p in &self.points {
            let _ = writeln!(
                out,
                "{},{:.1},{:.1},{:.1},{}",
                p.events,
                p.resident_bytes.as_kib_f64(),
                p.garbage_bytes.as_kib_f64(),
                p.footprint.as_kib_f64(),
                p.collections
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals() -> RunTotals {
        RunTotals {
            app_ios: 100,
            gc_ios: 50,
            max_footprint: Bytes::from_kib(384),
            partitions: 3,
            collections: 5,
            reclaimed_bytes: Bytes::from_kib(200),
            reclaimed_objects: 2000,
            final_live_bytes: Bytes::from_kib(300),
            final_garbage_bytes: Bytes::from_kib(100),
            final_nepotism_bytes: Bytes::from_kib(10),
            events: 10_000,
        }
    }

    #[test]
    fn derived_metrics() {
        let t = totals();
        assert_eq!(t.total_ios(), 150);
        assert_eq!(t.actual_garbage_bytes(), Bytes::from_kib(300));
        assert!((t.fraction_reclaimed_pct() - 66.666).abs() < 0.01);
        assert!((t.efficiency_kb_per_io() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_division_guards() {
        let t = RunTotals::default();
        assert_eq!(t.fraction_reclaimed_pct(), 0.0);
        assert_eq!(t.efficiency_kb_per_io(), 0.0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut ts = TimeSeries::new();
        ts.push(SamplePoint {
            events: 1000,
            resident_bytes: Bytes::from_kib(100),
            garbage_bytes: Bytes::from_kib(20),
            footprint: Bytes::from_kib(384),
            collections: 1,
        });
        ts.push(SamplePoint {
            events: 2000,
            resident_bytes: Bytes::from_kib(150),
            garbage_bytes: Bytes::from_kib(30),
            footprint: Bytes::from_kib(384),
            collections: 2,
        });
        let csv = ts.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("events,"));
        assert!(lines[1].starts_with("1000,100.0,20.0,384.0,1"));
        assert!(!ts.is_empty());
        assert_eq!(ts.points().len(), 2);
    }

    #[test]
    #[should_panic(expected = "chronological")]
    #[cfg(debug_assertions)]
    fn out_of_order_samples_panic_in_debug() {
        let mut ts = TimeSeries::new();
        let p = SamplePoint {
            events: 10,
            resident_bytes: Bytes::ZERO,
            garbage_bytes: Bytes::ZERO,
            footprint: Bytes::ZERO,
            collections: 0,
        };
        ts.push(p);
        ts.push(SamplePoint { events: 5, ..p });
    }
}
