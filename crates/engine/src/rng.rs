//! Seedable simulation randomness.
//!
//! A self-contained xoshiro256++ generator (Blackman & Vigna) seeded
//! through SplitMix64. Keeping the implementation in-tree makes "one
//! seed, one run" the only way to get random numbers *and* removes any
//! dependency whose internals could change the stream between versions,
//! so experiment outputs are reproducible byte-for-byte forever.

use ise_types::persist::{Persist, PersistError, Reader, Writer};

/// The single source of randomness for every experiment.
///
/// ```
/// use ise_engine::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.range(0, 1000), b.range(0, 1000));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

/// SplitMix64 step, used to expand the 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The generator's full stream position: the four raw xoshiro256++
    /// state words. This — not a draw counter — is the only observable
    /// that makes save/restore exact: [`range`](Self::range) uses
    /// Lemire rejection sampling, so the number of raw draws consumed
    /// per call is data-dependent and a "replay N calls" scheme would
    /// desynchronize on the first rejected draw.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Repositions the generator to a previously captured
    /// [`state`](Self::state); the subsequent stream is identical to
    /// the one the captured generator would have produced.
    pub fn seek(&mut self, state: [u64; 4]) {
        self.s = state;
    }

    /// The next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        let span = hi - lo;
        // Lemire's multiply-shift with rejection: the bare multiply-shift
        // gives some outputs one more 64-bit preimage than others (for
        // span = 3·2^62 a third of the outputs were twice as likely),
        // so draws whose low product word falls under `2^64 mod span`
        // are rejected, making every output exactly equiprobable.
        let threshold = span.wrapping_neg() % span;
        loop {
            let wide = (self.next_u64() as u128) * (span as u128);
            if (wide as u64) >= threshold {
                return lo + (wide >> 64) as u64;
            }
        }
    }

    /// A uniform `usize` index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        self.range(0, n as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 uniform mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Samples `k` distinct indices from `[0, n)` (reservoir style).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.range(0, i as u64 + 1) as usize;
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }
}

impl Persist for SimRng {
    fn save(&self, w: &mut Writer) {
        for word in self.s {
            w.u64(word);
        }
    }

    fn restore(r: &mut Reader) -> Result<Self, PersistError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.u64()?;
        }
        // The all-zero state is xoshiro's single absorbing fixed point;
        // no seeded generator can reach it, so it marks corruption.
        if s == [0; 4] {
            return Err(PersistError::Corrupt("all-zero rng state"));
        }
        Ok(SimRng { s })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::persist::{restore_container, save_container};

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.range(0, 1 << 20), b.range(0, 1 << 20));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32)
            .filter(|_| a.range(0, 100) == b.range(0, 100))
            .count();
        assert!(same < 32, "streams should not be identical");
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..1000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::seed_from(0).range(5, 5);
    }

    #[test]
    fn huge_span_has_no_preimage_bias() {
        // span = 3·2^62 makes 2^64/span = 4/3: under the pre-rejection
        // multiply-shift every output v ≡ 0 (mod 3) had two 64-bit
        // preimages and the rest one, so that residue class soaked up
        // half of all draws instead of a third. With rejection sampling
        // the class is hit with probability exactly 1/3; 30 000 draws
        // put the biased count near 15 000 and the unbiased count
        // within ±500 (> 6σ) of 10 000.
        let mut r = SimRng::seed_from(42);
        let span = 3u64 << 62;
        let n = 30_000;
        let heavy = (0..n)
            .filter(|_| r.range(0, span).is_multiple_of(3))
            .count();
        assert!(
            (9_500..=10_500).contains(&heavy),
            "residue class 0 (mod 3) drawn {heavy}/{n} times; expected ~{}",
            n / 3
        );
    }

    #[test]
    fn prop_small_spans_are_uniform_within_binomial_bounds() {
        // Every bucket of a small span must land within ~6σ of the
        // binomial mean. The case → seed mapping is fixed, so this
        // either always passes or always fails — no flakes.
        quickprop::check(24, |g| {
            let span = g.range_u64(2, 13);
            let n = 2_000u64;
            let mut r = SimRng::seed_from(g.u64());
            let mut buckets = vec![0u64; span as usize];
            for _ in 0..n {
                buckets[r.range(0, span) as usize] += 1;
            }
            let mean = n as f64 / span as f64;
            let tolerance = 6.0 * mean.sqrt();
            for (v, &count) in buckets.iter().enumerate() {
                assert!(
                    (count as f64 - mean).abs() <= tolerance,
                    "span {span}: bucket {v} drawn {count} times (mean {mean:.0} ± {tolerance:.0})"
                );
            }
        });
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn unit_stays_in_half_open_interval() {
        let mut r = SimRng::seed_from(11);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = SimRng::seed_from(6);
        let s = r.sample_indices(100, 10);
        assert_eq!(s.len(), 10);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversample_panics() {
        SimRng::seed_from(0).sample_indices(3, 4);
    }

    #[test]
    fn seek_repositions_the_stream() {
        let mut r = SimRng::seed_from(9);
        for _ in 0..17 {
            r.next_u64();
        }
        let pos = r.state();
        let ahead: Vec<u64> = (0..32).map(|_| r.next_u64()).collect();
        r.seek(pos);
        let replay: Vec<u64> = (0..32).map(|_| r.next_u64()).collect();
        assert_eq!(ahead, replay);
    }

    #[test]
    fn prop_restore_replays_identical_stream_tail() {
        // The property the snapshot layer leans on: save/restore at an
        // arbitrary mid-stream point replays the identical tail under a
        // mixed call pattern. The tail deliberately leans on `range`
        // with awkward spans (including span = 3·2^62, where Lemire
        // rejection consumes a variable number of raw draws per call):
        // any scheme that stored a draw *count* instead of the state
        // words would desynchronize here.
        quickprop::check(32, |g| {
            let mut rng = SimRng::seed_from(g.u64());
            let warmup = g.range_u64(0, 200);
            for _ in 0..warmup {
                match rng.next_u64() % 3 {
                    0 => {
                        rng.next_u64();
                    }
                    1 => {
                        rng.range(0, 3u64 << 62);
                    }
                    _ => {
                        rng.unit();
                    }
                }
            }
            let bytes = save_container(&rng);
            let mut twin: SimRng = restore_container(&bytes).expect("round-trip");
            assert_eq!(twin.state(), rng.state());
            for i in 0..256 {
                let (a, b) = match i % 4 {
                    0 => (rng.next_u64(), twin.next_u64()),
                    1 => (rng.range(0, 3u64 << 62), twin.range(0, 3u64 << 62)),
                    2 => (rng.range(5, 12), twin.range(5, 12)),
                    _ => (rng.unit().to_bits(), twin.unit().to_bits()),
                };
                assert_eq!(a, b, "stream tails diverged at call {i}");
            }
        });
    }

    #[test]
    fn corrupt_zero_state_is_rejected() {
        let mut w = ise_types::persist::Writer::container();
        for _ in 0..4 {
            w.u64(0);
        }
        let err = restore_container::<SimRng>(&w.finish()).expect_err("zero state");
        assert_eq!(
            err,
            ise_types::persist::PersistError::Corrupt("all-zero rng state")
        );
    }
}
