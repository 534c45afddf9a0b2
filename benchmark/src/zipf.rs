//! Seeded Zipf sampling for the serve workloads' key popularity.

use retcon_workloads::SplitMix64;

/// Zipf(`exponent`) over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)^exponent`.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative probabilities, ascending, last entry 1.0.
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        assert!(n > 0, "Zipf over no items");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    /// Draws one rank. The generator is the only source of randomness,
    /// so a seed reproduces the whole request sequence.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        // 53 random bits → uniform in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_other_seed_differs() {
        let z = Zipf::new(64, 1.0);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..200).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn popularity_follows_rank() {
        let z = Zipf::new(64, 1.0);
        let mut rng = SplitMix64::new(1);
        let mut counts = [0u32; 64];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // H(64) ≈ 4.744: rank 0 carries ~21 %, rank 1 half of that.
        let share0 = f64::from(counts[0]) / 50_000.0;
        assert!((share0 - 0.2108).abs() < 0.01, "{share0}");
        let ratio = f64::from(counts[0]) / f64::from(counts[1]);
        assert!((ratio - 2.0).abs() < 0.15, "{ratio}");
        assert!(counts.iter().all(|&c| c > 0));
    }
}
