//! Workload parameters (the test database of Sec. 5).
//!
//! Defaults reproduce the paper's headline configuration; the experiment
//! binaries override `target_allocated` (4–40 MB for Figure 6) and
//! `dense_edge_fraction` (for Table 5's connectivity sweep).

use pgc_types::{Bytes, FxHasher, PgcError, Result};
use std::hash::Hasher as _;

/// Everything that shapes the synthetic application.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadParams {
    /// RNG seed for the generator (the paper reports means over ten seeds).
    pub seed: u64,
    /// Stop generating once this many bytes have been allocated in total
    /// (live + eventual garbage). The paper's headline runs allocate
    /// ~11 MB, of which ~5 MB stays live.
    pub target_allocated: Bytes,
    /// Minimum nodes per augmented binary tree.
    pub tree_nodes_min: u64,
    /// Maximum nodes per augmented binary tree.
    pub tree_nodes_max: u64,
    /// Minimum small-object size (paper: 50 bytes).
    pub object_size_min: u64,
    /// Maximum small-object size (paper: 150 bytes).
    pub object_size_max: u64,
    /// Size of large leaf objects (paper: ~64 KB).
    pub large_object_size: u64,
    /// Fraction of *bytes* contributed by large leaves (paper: ~20%).
    pub large_object_byte_fraction: f64,
    /// Dense edges per tree node; database connectivity ≈ 1 + this
    /// (paper: 1.005 – 1.167 pointers per object).
    pub dense_edge_fraction: f64,
    /// Probability a chosen tree is not traversed this round (paper: 30%).
    pub p_no_traversal: f64,
    /// Probability of a depth-first traversal (paper: 20%).
    pub p_depth_first: f64,
    /// Probability, per tree edge, that a traversal skips the subtree below
    /// it (paper: 5%).
    pub p_skip_edge: f64,
    /// Probability a visited object is modified (paper: 1%).
    pub p_modify_on_visit: f64,
    /// Tree-traversal rounds interleaved per allocation round; calibrates
    /// the edge read/write ratio into the paper's 15–20 band.
    pub traversals_per_round: u32,
    /// Tree-edge deletions per allocation round; calibrates garbage volume
    /// and the collection count (~25 per run via the overwrite trigger).
    pub deletions_per_round: u32,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        Self {
            seed: 1,
            target_allocated: Bytes::from_mib(11),
            tree_nodes_min: 300,
            tree_nodes_max: 800,
            object_size_min: 50,
            object_size_max: 150,
            large_object_size: 64 * 1024,
            large_object_byte_fraction: 0.20,
            dense_edge_fraction: 0.08,
            p_no_traversal: 0.30,
            p_depth_first: 0.20,
            p_skip_edge: 0.05,
            p_modify_on_visit: 0.01,
            traversals_per_round: 22,
            deletions_per_round: 45,
        }
    }
}

impl WorkloadParams {
    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the allocation target.
    #[must_use]
    pub fn with_target_allocated(mut self, bytes: Bytes) -> Self {
        self.target_allocated = bytes;
        self
    }

    /// Sets the dense-edge fraction (connectivity ≈ 1 + fraction).
    #[must_use]
    pub fn with_dense_edge_fraction(mut self, fraction: f64) -> Self {
        self.dense_edge_fraction = fraction;
        self
    }

    /// Sets the deletions per round (garbage pacing).
    #[must_use]
    pub fn with_deletions_per_round(mut self, n: u32) -> Self {
        self.deletions_per_round = n;
        self
    }

    /// Sets the traversal rounds per allocation round (read pacing).
    #[must_use]
    pub fn with_traversals_per_round(mut self, n: u32) -> Self {
        self.traversals_per_round = n;
        self
    }

    /// A scaled-down configuration for unit tests and doctests
    /// (~0.5 MB allocated, small trees, 8 KB "large" leaves so they fit the
    /// small test databases; runs in milliseconds).
    pub fn small() -> Self {
        Self {
            target_allocated: Bytes::from_kib(512),
            tree_nodes_min: 40,
            tree_nodes_max: 120,
            large_object_size: 8 * 1024,
            traversals_per_round: 4,
            deletions_per_round: 10,
            ..Self::default()
        }
    }

    /// The probability that a newly created *leaf* is a large object,
    /// derived so that large leaves contribute
    /// [`WorkloadParams::large_object_byte_fraction`] of allocated bytes.
    ///
    /// With mean small size `s`, large size `L`, leaf fraction `q` of all
    /// nodes, and per-leaf large probability `p`:
    /// `frac = q·p·L / (q·p·L + (1 − q·p)·s)`, solved for `p`.
    pub fn large_leaf_probability(&self) -> f64 {
        let s = (self.object_size_min + self.object_size_max) as f64 / 2.0;
        let l = self.large_object_size as f64;
        let frac = self.large_object_byte_fraction.clamp(0.0, 0.95);
        if frac <= 0.0 || l <= s {
            return 0.0;
        }
        // Roughly half the nodes of a binary tree are leaves.
        let q = 0.5;
        // q*p*L = frac * (q*p*L + (1-q*p)*s)  =>
        // q*p*(L*(1-frac) + frac*s) = frac*s  =>
        let p = frac * s / (q * (l * (1.0 - frac) + frac * s));
        p.clamp(0.0, 1.0)
    }

    /// Expected database connectivity (pointers per object).
    pub fn expected_connectivity(&self) -> f64 {
        // Each n-node tree carries n−1 tree edges plus
        // dense_edge_fraction·n dense edges.
        let n = (self.tree_nodes_min + self.tree_nodes_max) as f64 / 2.0;
        (n - 1.0) / n + self.dense_edge_fraction
    }

    /// A digest over every field, keying the shared-trace cache
    /// ([`crate::encoded::TraceCache`]): parameter sets that digest equally
    /// (and compare equal — the cache double-checks) generate identical
    /// traces, because the generator is a pure function of its parameters.
    /// Floats are hashed by bit pattern, so `0.2` and `0.2000…1` differ.
    pub fn digest(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(self.seed);
        h.write_u64(self.target_allocated.get());
        h.write_u64(self.tree_nodes_min);
        h.write_u64(self.tree_nodes_max);
        h.write_u64(self.object_size_min);
        h.write_u64(self.object_size_max);
        h.write_u64(self.large_object_size);
        h.write_u64(self.large_object_byte_fraction.to_bits());
        h.write_u64(self.dense_edge_fraction.to_bits());
        h.write_u64(self.p_no_traversal.to_bits());
        h.write_u64(self.p_depth_first.to_bits());
        h.write_u64(self.p_skip_edge.to_bits());
        h.write_u64(self.p_modify_on_visit.to_bits());
        h.write_u32(self.traversals_per_round);
        h.write_u32(self.deletions_per_round);
        h.finish()
    }

    /// Validates parameter consistency.
    pub fn validate(&self) -> Result<()> {
        if self.tree_nodes_min < 2 || self.tree_nodes_min > self.tree_nodes_max {
            return Err(PgcError::InvalidConfig(
                "tree node bounds must satisfy 2 <= min <= max",
            ));
        }
        if self.object_size_min == 0 || self.object_size_min > self.object_size_max {
            return Err(PgcError::InvalidConfig(
                "object size bounds must satisfy 0 < min <= max",
            ));
        }
        if self.target_allocated.is_zero() {
            return Err(PgcError::InvalidConfig("target_allocated must be positive"));
        }
        // Every object but those of the last tree is built below the target,
        // and the mirror indexes nodes by `u32`.
        let max_nodes = (self.target_allocated.get() / self.object_size_min)
            .checked_add(self.tree_nodes_max)
            .filter(|&n| n <= u64::from(u32::MAX));
        if max_nodes.is_none() {
            return Err(PgcError::InvalidConfig(
                "target_allocated / object_size_min + tree_nodes_max must fit a u32",
            ));
        }
        for (p, name) in [
            (self.p_no_traversal, "p_no_traversal"),
            (self.p_depth_first, "p_depth_first"),
            (self.p_skip_edge, "p_skip_edge"),
            (self.p_modify_on_visit, "p_modify_on_visit"),
            (self.dense_edge_fraction, "dense_edge_fraction"),
            (
                self.large_object_byte_fraction,
                "large_object_byte_fraction",
            ),
        ] {
            if !(0.0..=1.0).contains(&p) {
                let _ = name;
                return Err(PgcError::InvalidConfig("probabilities must be in [0, 1]"));
            }
        }
        if self.p_no_traversal + self.p_depth_first > 1.0 {
            return Err(PgcError::InvalidConfig(
                "traversal mix probabilities exceed 1",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_5() {
        let p = WorkloadParams::default();
        assert_eq!(p.object_size_min, 50);
        assert_eq!(p.object_size_max, 150);
        assert_eq!(p.large_object_size, 64 * 1024);
        assert!((p.large_object_byte_fraction - 0.20).abs() < 1e-9);
        assert!((p.p_no_traversal - 0.30).abs() < 1e-9);
        assert!((p.p_depth_first - 0.20).abs() < 1e-9);
        assert!((p.p_skip_edge - 0.05).abs() < 1e-9);
        assert!((p.p_modify_on_visit - 0.01).abs() < 1e-9);
        p.validate().unwrap();
    }

    #[test]
    fn large_leaf_probability_yields_target_byte_fraction() {
        let p = WorkloadParams::default();
        let prob = p.large_leaf_probability();
        assert!(prob > 0.0 && prob < 0.05, "prob = {prob}");
        // Reconstruct the byte fraction from the derived probability.
        let s = 100.0f64;
        let l = p.large_object_size as f64;
        let q = 0.5;
        let frac = q * prob * l / (q * prob * l + (1.0 - q * prob) * s);
        assert!((frac - 0.20).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn large_leaf_probability_zero_when_disabled() {
        let p = WorkloadParams {
            large_object_byte_fraction: 0.0,
            ..WorkloadParams::default()
        };
        assert_eq!(p.large_leaf_probability(), 0.0);
    }

    #[test]
    fn expected_connectivity_tracks_dense_fraction() {
        let p = WorkloadParams::default().with_dense_edge_fraction(0.005);
        let c = p.expected_connectivity();
        assert!((c - 1.003).abs() < 0.01, "c = {c}");
        let p = p.with_dense_edge_fraction(0.167);
        assert!(p.expected_connectivity() > 1.16);
    }

    #[test]
    fn validation_catches_bad_bounds() {
        let p = WorkloadParams {
            tree_nodes_min: 1,
            ..WorkloadParams::default()
        };
        assert!(p.validate().is_err());
        let p = WorkloadParams {
            object_size_min: 200,
            ..WorkloadParams::default()
        };
        assert!(p.validate().is_err());
        let p = WorkloadParams {
            p_skip_edge: 1.5,
            ..WorkloadParams::default()
        };
        assert!(p.validate().is_err());
        let p = WorkloadParams {
            p_no_traversal: 0.7,
            p_depth_first: 0.5,
            ..WorkloadParams::default()
        };
        assert!(p.validate().is_err());
        let p = WorkloadParams {
            target_allocated: Bytes::ZERO,
            ..WorkloadParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_refuses_more_nodes_than_a_u32_indexes() {
        let at = |target: u64, tree_nodes_max: u64| WorkloadParams {
            target_allocated: Bytes(target),
            object_size_min: 1,
            object_size_max: 1,
            tree_nodes_max,
            ..WorkloadParams::default()
        };
        let limit = u64::from(u32::MAX);
        at(limit - 800, 800).validate().unwrap();
        for p in [at(limit - 799, 800), at(u64::MAX, 800), at(1, u64::MAX)] {
            assert!(matches!(p.validate(), Err(PgcError::InvalidConfig(_))));
        }
    }

    #[test]
    fn digest_separates_every_field_and_is_stable() {
        let base = WorkloadParams::default();
        assert_eq!(base.digest(), WorkloadParams::default().digest());
        let variants = [
            base.clone().with_seed(2),
            base.clone().with_target_allocated(Bytes::from_mib(12)),
            base.clone().with_dense_edge_fraction(0.081),
            base.clone().with_deletions_per_round(44),
            base.clone().with_traversals_per_round(23),
            WorkloadParams {
                p_skip_edge: 0.051,
                ..base.clone()
            },
            WorkloadParams {
                large_object_size: 65 * 1024,
                ..base.clone()
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base.digest(), v.digest(), "variant {i} collided");
        }
    }

    #[test]
    fn small_config_is_valid_and_small() {
        let p = WorkloadParams::small();
        p.validate().unwrap();
        assert!(p.target_allocated < Bytes::from_mib(1));
    }
}
