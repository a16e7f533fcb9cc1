//! The seeded, dependency-free generator behind every deterministic test
//! stream: difftest case generation and the translation validator's
//! probe values.
//!
//! xorshift64* (Vigna 2016): tiny state, good equidistribution for the
//! bounded draws these generators need, and — critically — the same
//! stream on every platform and every run. Nothing here reads clocks or OS
//! entropy; a seed fully determines the stream.

/// xorshift64* generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

/// SplitMix64 step: used to whiten user-supplied seeds (which are often
/// small integers or hashes with clustered bits) before they feed the
/// xorshift stream.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Generator starting from a raw state, which must be nonzero.
    pub fn from_state(state: u64) -> Rng {
        debug_assert_ne!(state, 0, "xorshift state must be nonzero");
        Rng { state }
    }

    /// Generator seeded for one `(run seed, case index)` pair.
    pub fn for_case(seed: u64, case: u64) -> Rng {
        // Mix the two halves so neighbouring cases share no prefix.
        let state = splitmix64(seed ^ splitmix64(case));
        Rng::from_state(if state == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            state
        })
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift bounded draw (Lemire); bias is < 2^-32 for the
        // tiny ranges used here, and determinism is all that matters.
        ((self.next_u64() >> 32).wrapping_mul(n)) >> 32
    }

    /// Uniform draw in `[lo, hi]` (inclusive).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform index into a nonempty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream difftest campaigns are generated from: pinned so a
    /// fixed `--seed` keeps producing the same programs.
    #[test]
    fn for_case_stream_is_pinned() {
        let mut r = Rng::for_case(0x5EED, 3);
        let draws: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(
            draws,
            [
                0xafd8_6551_ea4f_760a,
                0x1afb_6fea_04df_c14b,
                0x2852_99ea_ed98_3c97,
                0xef16_75a4_1944_4f8a,
                0x9099_86b9_62a1_b222,
                0xe359_1774_448b_ea74,
                0xc6e2_4b37_1e6a_a7a8,
                0x40bc_bbcb_d406_108a,
            ]
        );
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::for_case(42, 7);
        let mut b = Rng::for_case(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn neighbouring_cases_diverge() {
        let mut a = Rng::for_case(42, 7);
        let mut b = Rng::for_case(42, 8);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut r = Rng::for_case(1, 1);
        for _ in 0..1000 {
            let v = r.range_i64(-3, 9);
            assert!((-3..=9).contains(&v));
            assert!(r.below(5) < 5);
        }
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng::for_case(0, 0);
        assert_ne!(r.next_u64(), r.next_u64());
    }
}
