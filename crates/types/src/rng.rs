//! Deterministic random number generation for simulations.
//!
//! Every source of randomness in the workspace (workload generation, the
//! `Random` selection policy, object sizing) draws from a [`SimRng`] that is
//! seeded explicitly, so a simulation run is a pure function of its
//! configuration and seed. The paper reports means and standard deviations
//! over ten seeds; the experiment runner does the same by constructing ten
//! `SimRng`s from consecutive seeds.
//!
//! The generator is a self-contained **xoshiro256++** implementation seeded
//! through SplitMix64, so the workspace builds with no external crates (the
//! build environment has no network access to a registry). The stream
//! therefore differs from the earlier `rand::rngs::StdRng`-backed
//! implementation; EXPERIMENTS.md records the re-measured table values.

/// A seeded, reproducible random number generator.
///
/// xoshiro256++ (Blackman & Vigna) with its 256-bit state filled from the
/// 64-bit seed via SplitMix64. It records its seed (handy for reporting
/// which run produced an anomaly) and offers [`SimRng::fork`] for deriving
/// independent substreams, so that adding a consumer of randomness in one
/// component does not perturb the stream seen by another.
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
    forks: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Standard xoshiro seeding: run SplitMix64 from the seed to fill
        // the state. SplitMix64 is equidistributed, so no all-zero state
        // can arise.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(sm)
        };
        let state = [next(), next(), next(), next()];
        Self {
            seed,
            state,
            forks: 0,
        }
    }

    /// The seed this generator was created with.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator.
    ///
    /// Each call yields a stream seeded from `(seed, fork index)` via
    /// SplitMix64 finalization, so forks are decorrelated from both the
    /// parent and each other without consuming parent entropy.
    pub fn fork(&mut self) -> SimRng {
        self.forks += 1;
        let sub = splitmix64(self.seed ^ splitmix64(self.forks));
        SimRng::new(sub)
    }

    /// The next raw 64-bit output (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        self.state = [s0, s1, s2, s3.rotate_left(45)];
        result
    }

    /// Uniform integer in `[0, bound)`. `bound` must be positive.
    ///
    /// Lemire's nearly-divisionless unbiased bounded sampling.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        let mut m = (self.next_u64() as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                m = (self.next_u64() as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        match hi.checked_sub(lo).and_then(|w| w.checked_add(1)) {
            Some(width) => lo + self.below(width),
            // The full u64 range: every output is in range.
            None => self.next_u64(),
        }
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits: the standard dyadic-rational recipe.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Picks a uniformly random element of a non-empty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        debug_assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Picks a uniformly random index into a collection of length `len`.
    #[inline]
    pub fn pick_index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Appends the stream position (the seed is the constructor's).
    pub fn save(&self, out: &mut Vec<u64>) {
        out.extend(self.state);
        out.push(self.forks);
    }

    /// Resumes the stream at the position [`SimRng::save`] wrote.
    pub fn load(&mut self, words: &mut crate::Words<'_>) -> crate::Result<()> {
        for s in &mut self.state {
            *s = words.word()?;
        }
        self.forks = words.word()?;
        Ok(())
    }
}

/// SplitMix64 finalizer, used for state seeding and fork decorrelation.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..32).map(|_| a.below(u64::MAX)).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.below(u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = SimRng::new(0);
        let outputs: Vec<u64> = (0..16).map(|_| r.next_u64()).collect();
        assert!(outputs.iter().any(|&x| x != 0));
        assert!(outputs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        // Forking must not depend on how much entropy the parent consumed.
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let _ = b.below(10); // consume from b only
        let mut fa = a.fork();
        let mut fb = b.fork();
        for _ in 0..50 {
            assert_eq!(fa.below(1 << 30), fb.below(1 << 30));
        }
    }

    #[test]
    fn successive_forks_differ() {
        let mut a = SimRng::new(7);
        let mut f1 = a.fork();
        let mut f2 = a.fork();
        let v1: Vec<u64> = (0..16).map(|_| f1.below(u64::MAX)).collect();
        let v2: Vec<u64> = (0..16).map(|_| f2.below(u64::MAX)).collect();
        assert_ne!(v1, v2);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(5);
        for bound in [1u64, 2, 3, 7, 100, 1 << 33] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_covers_small_ranges() {
        let mut r = SimRng::new(6);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn range_inclusive_covers_bounds() {
        let mut r = SimRng::new(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = r.range_inclusive(5, 8);
            assert!((5..=8).contains(&v));
            saw_lo |= v == 5;
            saw_hi |= v == 8;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn range_inclusive_handles_full_range() {
        let mut r = SimRng::new(19);
        // Must not overflow or panic on the degenerate full-width range.
        for _ in 0..16 {
            let _ = r.range_inclusive(0, u64::MAX);
        }
        assert_eq!(r.range_inclusive(7, 7), 7);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2500..3500).contains(&hits), "hits={hits}");
    }

    #[test]
    fn pick_returns_member() {
        let mut r = SimRng::new(13);
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(r.pick(&items)));
        }
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut r = SimRng::new(17);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn unit_mean_is_centered() {
        let mut r = SimRng::new(23);
        let sum: f64 = (0..10_000).map(|_| r.unit()).sum();
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean={mean}");
    }

    #[test]
    fn seed_is_recorded() {
        assert_eq!(SimRng::new(123).seed(), 123);
    }

    #[test]
    fn a_loaded_stream_resumes_where_it_was_saved() {
        let mut live = SimRng::new(31);
        let _ = live.below(100);
        let _ = live.fork();
        let mut saved = Vec::new();
        live.save(&mut saved);
        let mut resumed = SimRng::new(31);
        resumed.load(&mut crate::Words::new(&saved)).unwrap();
        for _ in 0..16 {
            assert_eq!(resumed.next_u64(), live.next_u64());
        }
        assert_eq!(resumed.fork().next_u64(), live.fork().next_u64());
    }

    #[test]
    fn xoshiro_reference_vector() {
        // Reference outputs for xoshiro256++ with state {1, 2, 3, 4}
        // (from the public-domain reference implementation).
        let mut r = SimRng::new(0);
        r.state = [1, 2, 3, 4];
        let expected: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expected {
            assert_eq!(r.next_u64(), e);
        }
    }
}
