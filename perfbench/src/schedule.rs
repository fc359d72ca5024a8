//! Seeded inputs and arrival times. Everything a workload sends is drawn
//! here from the `--seed` argument, so one seed always replays the same
//! traffic.

use std::time::Duration;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Offsets from the start of a run at which a Poisson process of
/// `rate_per_s` arrivals per second fires, up to `horizon`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, horizon: Duration) -> Vec<Duration> {
    let mut rng = Rng::new(seed, 1);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate_per_s * horizon.as_secs_f64() * 1.1) as usize);
    loop {
        // Inverse-CDF exponential gap; `1 - u` keeps the log finite.
        t += -(1.0 - rng.unit()).ln() / rate_per_s;
        if t >= horizon.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// `n` input vectors of `dim` values in `[-0.5, 0.5)`.
pub fn input_pool(seed: u64, dim: usize, n: usize) -> Vec<Vec<f32>> {
    let mut rng = Rng::new(seed, 2);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.unit() as f32 - 0.5).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_identical_for_a_seed() {
        let horizon = Duration::from_millis(500);
        let a = poisson_schedule(7, 8_000.0, horizon);
        let b = poisson_schedule(7, 8_000.0, horizon);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 8_000.0, horizon));
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate_and_is_ordered() {
        let a = poisson_schedule(3, 8_000.0, Duration::from_secs(2));
        // 16,000 expected arrivals; the standard deviation is about 126.
        assert!((15_500..16_500).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < Duration::from_secs(2));
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        assert_eq!(input_pool(5, 16, 4), input_pool(5, 16, 4));
        assert_ne!(input_pool(5, 16, 4), input_pool(6, 16, 4));
        assert!(input_pool(5, 16, 64)
            .iter()
            .flatten()
            .all(|x| (-0.5..0.5).contains(x)));
    }
}
