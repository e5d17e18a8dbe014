//! The generated inputs: initial values and the engine master seed, both
//! derived from the workload seed and nothing else.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Initial values are drawn uniformly from `[0, VALUE_RANGE)`.
pub const VALUE_RANGE: f64 = 1000.0;

#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub values: Vec<f64>,
    pub master_seed: u64,
    /// Mean of `values`, the target every epoch estimate must reach.
    pub true_mean: f64,
    /// Population variance of `values`: the variance every epoch starts
    /// from (no churn, so each restart returns to the same local values).
    pub initial_variance: f64,
}

/// SplitMix64 finaliser, used to derive the master seed from the workload
/// seed on a stream separate from the value draws.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Inputs {
    pub fn generate(seed: u64, nodes: usize) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<f64> = (0..nodes).map(|_| rng.gen::<f64>() * VALUE_RANGE).collect();
        let n = values.len() as f64;
        let true_mean = values.iter().sum::<f64>() / n;
        let initial_variance = values
            .iter()
            .map(|v| (v - true_mean) * (v - true_mean))
            .sum::<f64>()
            / n;
        Inputs {
            values,
            master_seed: splitmix64(seed),
            true_mean,
            initial_variance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(Inputs::generate(7, 1000), Inputs::generate(7, 1000));
    }

    #[test]
    fn another_seed_gives_other_values_and_another_master_seed() {
        let a = Inputs::generate(7, 1000);
        let b = Inputs::generate(8, 1000);
        assert_ne!(a.values, b.values);
        assert_ne!(a.master_seed, b.master_seed);
    }

    #[test]
    fn values_lie_in_range_with_consistent_moments() {
        let inputs = Inputs::generate(3, 10_000);
        assert!(inputs.values.iter().all(|v| (0.0..VALUE_RANGE).contains(v)));
        // Uniform on [0, 1000): mean 500, variance 1000²/12.
        assert!((inputs.true_mean - 500.0).abs() < 10.0);
        assert!((inputs.initial_variance / (VALUE_RANGE * VALUE_RANGE / 12.0) - 1.0).abs() < 0.05);
    }

    #[test]
    fn a_smaller_population_is_a_prefix_of_a_larger_one() {
        let small = Inputs::generate(11, 100);
        let large = Inputs::generate(11, 1000);
        assert_eq!(small.values[..], large.values[..100]);
        assert_eq!(small.master_seed, large.master_seed);
    }
}
