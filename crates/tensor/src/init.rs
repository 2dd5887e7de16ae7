//! Parameter and embedding initialisation helpers.
//!
//! GNN layer weights use Glorot (Xavier) uniform initialisation, matching the
//! defaults of the systems compared in the paper; learnable base representations
//! for knowledge-graph nodes use a small uniform range as in Marius.

use crate::Tensor;
use rand::Rng;

/// Glorot / Xavier uniform initialisation for a `(fan_in, fan_out)` weight matrix.
///
/// Values are drawn from `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn glorot_uniform<R: Rng + ?Sized>(rng: &mut R, fan_in: usize, fan_out: usize) -> Tensor {
    let bound = if fan_in + fan_out == 0 {
        0.0
    } else {
        (6.0 / (fan_in + fan_out) as f32).sqrt()
    };
    uniform_init(rng, fan_in, fan_out, bound)
}

/// Uniform initialisation in `[-bound, bound]` for a `(rows, cols)` tensor.
pub fn uniform_init<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize, bound: f32) -> Tensor {
    let mut t = Tensor::zeros(rows, cols);
    if bound > 0.0 {
        for x in t.data_mut() {
            *x = rng.gen_range(-bound..bound);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn glorot_values_within_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = glorot_uniform(&mut rng, 64, 32);
        let bound = (6.0f32 / 96.0).sqrt();
        assert!(w.max() <= bound);
        assert!(w.min() >= -bound);
        assert_eq!(w.shape(), (64, 32));
    }

    #[test]
    fn glorot_zero_fan_does_not_panic() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = glorot_uniform(&mut rng, 0, 0);
        assert!(w.is_empty());
    }

    #[test]
    fn uniform_init_respects_bound_and_seed() {
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        let a = uniform_init(&mut rng1, 10, 10, 0.5);
        let b = uniform_init(&mut rng2, 10, 10, 0.5);
        assert_eq!(a, b);
        assert!(a.max() <= 0.5 && a.min() >= -0.5);
    }

    #[test]
    fn uniform_init_zero_bound_is_zeros() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = uniform_init(&mut rng, 3, 3, 0.0);
        assert_eq!(a.sum(), 0.0);
    }

    #[test]
    fn glorot_is_not_degenerate() {
        // With a reasonable size the sample variance should be close to bound^2/3.
        let mut rng = StdRng::seed_from_u64(42);
        let w = glorot_uniform(&mut rng, 100, 100);
        let mean = w.mean();
        let var: f32 = w
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / w.len() as f32;
        let bound = (6.0f32 / 200.0).sqrt();
        let expected_var = bound * bound / 3.0;
        assert!((var - expected_var).abs() / expected_var < 0.2);
    }
}
