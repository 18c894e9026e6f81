//! A seeded SplitMix64 generator: every input the benchmark sends is drawn
//! from it, so the same `--seed` yields the same op streams.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> i64 {
        i64::try_from(self.next_u64() % n).expect("below() bound fits i64")
    }

    /// Due times, in seconds from the start, of `n` Poisson arrivals at
    /// `rate_per_s`.
    pub fn arrivals(&mut self, n: usize, rate_per_s: f64) -> Vec<f64> {
        let mut t = 0.0;
        (0..n)
            .map(|_| {
                let due = t;
                // 53 random bits give a uniform in (0, 1].
                let u = ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
                t += -u.ln() / rate_per_s;
                due
            })
            .collect()
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<i64> {
        let mut v: Vec<i64> = (0..n as i64).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}
