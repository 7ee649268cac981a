//! Seeded input generators. The codec only ever receives the tensors these
//! produce; the same seed gives the same tensors.

use std::ops::Range;

use llm265_tensor::rng::Pcg32;
use llm265_tensor::synthetic::{llm_weight, GradientProfile, WeightProfile};
use llm265_tensor::Tensor;

/// Input families: each has generators of its own under one seed.
const WEIGHT_STREAM: u64 = 1;
const GRAD_LAYER_STREAM: u64 = 2;
const GRAD_STEP_STREAM: u64 = 3;
const ARCHIVE_STREAM: u64 = 4;
pub const OPS_STREAM: u64 = 5;

/// SplitMix64 finalizer: a bijective mix of all 64 bits.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generator `k` of input family `family` under `seed`.
///
/// PCG streams that share a seed and differ only in their increment give
/// correlated sequences, so each generator gets a seed hashed from all
/// three numbers rather than a stream of its own.
pub fn rng(seed: u64, family: u64, k: u64) -> Pcg32 {
    Pcg32::with_stream(mix(mix(seed ^ mix(family)) ^ k), family)
}

/// The `k`-th synthetic LLM weight of shape `rows × cols` for `seed`.
pub fn weight(seed: u64, k: u64, rows: usize, cols: usize) -> Tensor {
    let mut rng = rng(seed, WEIGHT_STREAM, k);
    llm_weight(rows, cols, &WeightProfile::default(), &mut rng)
}

/// One layer's gradients, step after step.
///
/// Every step shares the layer's shape and its per-row scale pattern
/// (drawn once from the seed); the body and spikes are fresh each step,
/// and the row-range spread drifts slowly with training progress
/// ([`GradientProfile::at_progress`]), as one layer's real gradients do.
#[derive(Debug, Clone)]
pub struct GradStream {
    seed: u64,
    rows: usize,
    cols: usize,
    /// Position of each row in the layer's scale range, in `[0, 1)`.
    row_pos: Vec<f64>,
    /// Steps over which progress goes from 0 to 1.
    horizon: u64,
}

impl GradStream {
    pub fn new(seed: u64, rows: usize, cols: usize, horizon: u64) -> Self {
        let mut rng = rng(seed, GRAD_LAYER_STREAM, 0);
        let row_pos = (0..rows).map(|_| rng.f64()).collect();
        GradStream {
            seed,
            rows,
            cols,
            row_pos,
            horizon,
        }
    }

    /// The gradient at `step`.
    pub fn step(&self, step: u64) -> Tensor {
        let p = GradientProfile::at_progress(step as f64 / self.horizon as f64);
        let mut rng = rng(self.seed, GRAD_STEP_STREAM, step);
        let ln10 = std::f64::consts::LN_10;
        let row_scale: Vec<f64> = self
            .row_pos
            .iter()
            .map(|u| (p.range_orders * ln10 * (u - 0.5)).exp())
            .collect();
        Tensor::from_fn(self.rows, self.cols, |r, _| {
            let mut v = p.body_scale * row_scale[r] * rng.laplace(1.0);
            if rng.chance(p.spike_prob) {
                v *= p.spike_scale;
            }
            v as f32
        })
    }
}

/// Names and shapes of one transformer block's weights, width `d` and
/// MLP width `ffn`: four square attention projections and three MLP
/// projections (gate, up, down).
pub fn block_shapes(d: usize, ffn: usize) -> [(&'static str, usize, usize); 7] {
    [
        ("attn.q", d, d),
        ("attn.k", d, d),
        ("attn.v", d, d),
        ("attn.o", d, d),
        ("mlp.gate", ffn, d),
        ("mlp.up", ffn, d),
        ("mlp.down", d, ffn),
    ]
}

/// Named weights of the transformer blocks `blocks` of width `d` and MLP
/// width `ffn` ([`block_shapes`]).
pub fn blocks(seed: u64, blocks: Range<usize>, d: usize, ffn: usize) -> Vec<(String, Tensor)> {
    let shapes = block_shapes(d, ffn);
    blocks
        .flat_map(|b| shapes.iter().enumerate().map(move |(i, &s)| (b, i, s)))
        .map(|(b, i, (name, r, c))| {
            let mut rng = rng(seed, ARCHIVE_STREAM, (b * shapes.len() + i) as u64);
            let t = llm_weight(r, c, &WeightProfile::default(), &mut rng);
            (format!("layers.{b}.{name}"), t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(weight(5, 2, 8, 8).data(), weight(5, 2, 8, 8).data());
        assert_ne!(weight(5, 2, 8, 8).data(), weight(6, 2, 8, 8).data());
        assert_ne!(weight(5, 2, 8, 8).data(), weight(5, 3, 8, 8).data());
        let a = GradStream::new(9, 16, 8, 100);
        assert_eq!(
            a.step(4).data(),
            GradStream::new(9, 16, 8, 100).step(4).data()
        );
        assert_ne!(a.step(4).data(), a.step(5).data());
        let b = blocks(3, 0..2, 8, 20);
        assert_eq!(b.len(), 14);
        assert_eq!(b[4].1.shape(), (20, 8));
        assert_eq!(b[13].1.shape(), (8, 20));
        assert_eq!(b[13].0, "layers.1.mlp.down");
        assert_ne!(b[0].1.data(), b[7].1.data());
        let later = blocks(3, 1..3, 8, 20);
        assert_eq!(later[0].0, "layers.1.attn.q");
        assert_eq!(later[0].1.data(), b[7].1.data());
    }

    #[test]
    fn gradient_steps_share_the_row_scale_pattern() {
        // Row magnitudes follow the fixed per-row scales, so the ordering
        // of row energies is far more alike between steps than chance.
        let g = GradStream::new(1, 64, 256, 1000);
        let energy = |t: &Tensor| -> Vec<f64> {
            (0..t.rows())
                .map(|r| t.row(r).iter().map(|v| f64::from(v.abs())).sum())
                .collect()
        };
        let (a, b) = (energy(&g.step(0)), energy(&g.step(1)));
        let agree = (0..64)
            .flat_map(|i| (0..64).map(move |j| (i, j)))
            .filter(|&(i, j)| i < j && (a[i] < a[j]) == (b[i] < b[j]))
            .count();
        assert!(agree as f64 > 0.9 * (64.0 * 63.0 / 2.0), "agree {agree}");
    }
}
