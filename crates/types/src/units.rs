//! Byte and page unit arithmetic.
//!
//! The paper's cost model works at page granularity (8-kilobyte pages),
//! while objects are sized in bytes (uniform 50–150 bytes, plus occasional
//! 64 KB "large" leaves). This module provides a [`Bytes`] newtype with
//! saturating-free checked-by-construction arithmetic for the small set of
//! operations the simulator needs, and helpers to convert byte extents into
//! page spans.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// The page size used throughout the paper's evaluation: 8 kilobytes.
pub const DEFAULT_PAGE_SIZE: usize = 8 * 1024;

/// A byte quantity (object sizes, partition capacities, garbage volumes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Constructs a quantity from kilobytes (1 KB = 1024 bytes).
    #[inline]
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib * 1024)
    }

    /// Constructs a quantity from megabytes (1 MB = 1024 * 1024 bytes).
    #[inline]
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib * 1024 * 1024)
    }

    /// Raw byte count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// This quantity expressed in (fractional) kilobytes.
    #[inline]
    pub fn as_kib_f64(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// This quantity expressed in (fractional) megabytes.
    #[inline]
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Number of whole pages of size `page_size` needed to hold this many
    /// bytes (i.e. the ceiling of `self / page_size`).
    #[inline]
    pub fn pages_ceil(self, page_size: usize) -> PageCount {
        debug_assert!(page_size > 0, "page size must be positive");
        PageCount(self.0.div_ceil(page_size as u64))
    }

    /// Saturating subtraction: `max(self - rhs, 0)`.
    #[inline]
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition: `min(self + rhs, u64::MAX)`.
    #[inline]
    pub fn saturating_add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }

    /// True if this is exactly zero bytes.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        debug_assert!(self.0 >= rhs.0, "byte subtraction underflow");
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        debug_assert!(self.0 >= rhs.0, "byte subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 && self.0.is_multiple_of(1024 * 1024) {
            write!(f, "{}MiB", self.0 / (1024 * 1024))
        } else if self.0 >= 1024 && self.0.is_multiple_of(1024) {
            write!(f, "{}KiB", self.0 / 1024)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// A count of pages (buffer capacities, partition sizes, I/O totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageCount(pub u64);

impl PageCount {
    /// Raw page count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Total bytes occupied by this many pages of size `page_size`.
    #[inline]
    pub fn bytes(self, page_size: usize) -> Bytes {
        Bytes(self.0 * page_size as u64)
    }
}

impl Add for PageCount {
    type Output = PageCount;
    #[inline]
    fn add(self, rhs: PageCount) -> PageCount {
        PageCount(self.0 + rhs.0)
    }
}

impl AddAssign for PageCount {
    #[inline]
    fn add_assign(&mut self, rhs: PageCount) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for PageCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} pages", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Bytes::from_kib(1).get(), 1024);
        assert_eq!(Bytes::from_mib(2).get(), 2 * 1024 * 1024);
        assert_eq!(Bytes::ZERO.get(), 0);
        assert!(Bytes::ZERO.is_zero());
        assert!(!Bytes(1).is_zero());
    }

    #[test]
    fn pages_ceil_rounds_up() {
        let ps = DEFAULT_PAGE_SIZE;
        assert_eq!(Bytes(0).pages_ceil(ps), PageCount(0));
        assert_eq!(Bytes(1).pages_ceil(ps), PageCount(1));
        assert_eq!(Bytes(ps as u64).pages_ceil(ps), PageCount(1));
        assert_eq!(Bytes(ps as u64 + 1).pages_ceil(ps), PageCount(2));
        assert_eq!(Bytes(ps as u64 * 8).pages_ceil(ps), PageCount(8));
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Bytes(100);
        let b = Bytes(28);
        assert_eq!(a + b, Bytes(128));
        assert_eq!(a - b, Bytes(72));
        assert_eq!(a * 3, Bytes(300));
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
        let mut c = a;
        c += b;
        c -= Bytes(28);
        assert_eq!(c, a);
    }

    #[test]
    fn sum_of_bytes() {
        let total: Bytes = [Bytes(1), Bytes(2), Bytes(3)].into_iter().sum();
        assert_eq!(total, Bytes(6));
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(Bytes(512).to_string(), "512B");
        assert_eq!(Bytes::from_kib(48).to_string(), "48KiB");
        assert_eq!(Bytes::from_mib(5).to_string(), "5MiB");
        assert_eq!(Bytes(1536).to_string(), "1536B");
        assert_eq!(PageCount(48).to_string(), "48 pages");
    }

    #[test]
    fn page_count_bytes_round_trip() {
        let pc = PageCount(48);
        assert_eq!(pc.bytes(DEFAULT_PAGE_SIZE), Bytes::from_kib(48 * 8));
        assert_eq!(
            pc.bytes(DEFAULT_PAGE_SIZE).pages_ceil(DEFAULT_PAGE_SIZE),
            pc
        );
    }

    #[test]
    fn fractional_views() {
        assert!((Bytes::from_kib(1).as_kib_f64() - 1.0).abs() < 1e-12);
        assert!((Bytes::from_mib(1).as_mib_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    #[cfg(debug_assertions)]
    fn subtraction_underflow_panics_in_debug() {
        let _ = Bytes(1) - Bytes(2);
    }
}
