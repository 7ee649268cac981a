//! Orthonormal 2-D DCT transform coding.
//!
//! §3.1 of the paper attributes transform coding's effectiveness on
//! tensors not to perceptual frequency weighting but to **outlier
//! mitigation**: the DCT spreads a single huge value across all
//! coefficients of its block (Fig 3), so a uniform quantizer no longer has
//! to choose between resolving the body and covering the outlier. The
//! transforms here are orthonormal (Parseval holds exactly up to f64
//! rounding), so squared error in the coefficient domain equals squared
//! error in the pixel domain — which is what makes RD optimisation in the
//! coefficient domain legitimate.
//!
//! # Fixed-size kernels
//!
//! `forward_into`/`inverse_into` dispatch the four supported sizes to
//! const-generic kernels, so every loop bound is a compile-time constant
//! and the compiler unrolls and vectorizes across *independent* outputs.
//! Each output coefficient still accumulates its own sum in the textbook
//! order — starting from `+0.0`, adding one product per step in
//! ascending index order, no fused multiply-add — so the result is bit
//! for bit the textbook triple loop's on every machine and target CPU.
//!
//! An all-zero coefficient block returns zeros at once: summing `±0.0`
//! products from `+0.0` gives `+0.0`, which rounds to 0.
//!
//! Residuals round half away from zero through
//! [`crate::lanes::round_to_i32`], which equals `f64::round` followed by
//! the saturating cast without the library call. See DESIGN.md
//! ("Deterministic SIMD").

use std::sync::OnceLock;

use crate::lanes::round_to_i32;

/// Supported transform sizes.
pub const SIZES: [usize; 4] = [4, 8, 16, 32];

/// Outputs accumulated per register group: eight `f64`s (four SSE2 or two
/// AVX2 registers) keep every running sum in registers at every size.
const GROUP: usize = 8;

/// `out[j] = sum_k s[k] * rows[k][j]`: each output starts at `+0.0` and
/// adds one product per step in ascending `k`. The outputs are
/// independent, so computing them in groups of [`GROUP`] changes no sum.
#[inline]
fn rank1_sum<const N: usize>(s: &[f64; N], rows: &[[f64; N]], out: &mut [f64; N]) {
    for (g, o) in out.chunks_mut(GROUP).enumerate() {
        let mut acc = [0.0f64; GROUP];
        for (&sk, r) in s.iter().zip(rows) {
            for (a, &v) in acc.iter_mut().zip(&r[g * GROUP..]) {
                *a += sk * v;
            }
        }
        o.copy_from_slice(&acc[..o.len()]);
    }
}

/// Both forward passes at a compile-time size `N`.
fn forward_n<const N: usize>(plan: &DctPlan, block: &[i32], tmp: &mut [f64], out: &mut [f64]) {
    let (basis, _) = plan.basis.as_chunks::<N>();
    let (basis_t, _) = plan.basis_t.as_chunks::<N>();
    // Pass 1 (rows): tmp[y][k] = sum_i block[y][i] * basis[k][i].
    let (rows, _) = block.as_chunks::<N>();
    let (tmp_rows, _) = tmp.as_chunks_mut::<N>();
    let mut row_f = [0.0f64; N];
    for (t, row) in tmp_rows.iter_mut().zip(rows) {
        for (f, &v) in row_f.iter_mut().zip(row) {
            *f = f64::from(v);
        }
        rank1_sum(&row_f, basis_t, t);
    }
    // Pass 2 (columns): out[k][x] = sum_i basis[k][i] * tmp[i][x].
    let (tmp_rows, _) = tmp.as_chunks::<N>();
    let (out_rows, _) = out.as_chunks_mut::<N>();
    for (o, b) in out_rows.iter_mut().zip(basis) {
        rank1_sum(b, tmp_rows, o);
    }
}

/// Both inverse passes at a compile-time size `N`. An all-zero block
/// returns zeros without any arithmetic (see the module docs).
fn inverse_n<const N: usize>(plan: &DctPlan, coeffs: &[f64], tmp: &mut [f64], out: &mut [i32]) {
    // No early exit: a branch-free scan is cheaper than a mispredicted
    // one. `-0.0` counts as zero.
    // lint:allow(float-cmp): an exact zero test — only an exactly zero
    // block has an exactly zero inverse.
    let any_nonzero = coeffs.iter().fold(false, |any, &c| any | (c != 0.0));
    if !any_nonzero {
        out.fill(0);
        return;
    }
    let (basis, _) = plan.basis.as_chunks::<N>();
    let (basis_t, _) = plan.basis_t.as_chunks::<N>();
    // Pass 1 (columns): tmp[i][x] = sum_k basis[k][i] * coeffs[k][x].
    let (c_rows, _) = coeffs.as_chunks::<N>();
    let (tmp_rows, _) = tmp.as_chunks_mut::<N>();
    for (t, bt) in tmp_rows.iter_mut().zip(basis_t) {
        rank1_sum(bt, c_rows, t);
    }
    // Pass 2 (rows): out[y][i] = round(sum_k tmp[y][k] * basis[k][i]).
    let (tmp_rows, _) = tmp.as_chunks::<N>();
    let (out_rows, _) = out.as_chunks_mut::<N>();
    let mut acc = [0.0f64; N];
    for (o, t) in out_rows.iter_mut().zip(tmp_rows) {
        rank1_sum(t, basis, &mut acc);
        for (o, &a) in o.iter_mut().zip(&acc) {
            *o = round_to_i32(a);
        }
    }
}

/// Precomputed orthonormal DCT-II basis for one size.
#[derive(Debug, Clone)]
pub struct DctPlan {
    n: usize,
    // basis[k*n + i] = alpha_k * cos(pi/n * (i + 0.5) * k)
    basis: Vec<f64>,
    // Transposed basis, basis_t[i*n + k] = basis[k*n + i]: lets the
    // kernels read each pass's scalar operand from one contiguous row.
    basis_t: Vec<f64>,
}

impl DctPlan {
    /// Builds a plan for transform size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not one of [`SIZES`].
    pub fn new(n: usize) -> Self {
        assert!(SIZES.contains(&n), "unsupported transform size {n}");
        let mut basis = vec![0.0; n * n];
        for k in 0..n {
            let alpha = if k == 0 {
                (1.0 / n as f64).sqrt()
            } else {
                (2.0 / n as f64).sqrt()
            };
            for i in 0..n {
                basis[k * n + i] =
                    alpha * (std::f64::consts::PI / n as f64 * (i as f64 + 0.5) * k as f64).cos();
            }
        }
        let mut basis_t = vec![0.0; n * n];
        for k in 0..n {
            for i in 0..n {
                basis_t[i * n + k] = basis[k * n + i];
            }
        }
        DctPlan { n, basis, basis_t }
    }

    /// Transform size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Forward 2-D DCT of an `n × n` spatial block (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != n * n`.
    pub fn forward(&self, block: &[i32]) -> Vec<f64> {
        let mut tmp = Vec::new();
        let mut out = Vec::new();
        self.forward_into(block, &mut tmp, &mut out);
        out
    }

    /// [`Self::forward`] into caller-owned buffers, for hot loops that
    /// transform many blocks. `tmp` is workspace, `out` receives the
    /// coefficients; both are resized as needed and every slot is
    /// overwritten. The arithmetic (and so the result, bit for bit) is
    /// identical to [`Self::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != n * n`.
    pub fn forward_into(&self, block: &[i32], tmp: &mut Vec<f64>, out: &mut Vec<f64>) {
        let n = self.n;
        assert_eq!(block.len(), n * n);
        tmp.resize(n * n, 0.0);
        out.resize(n * n, 0.0);
        // `n` is one of SIZES by construction.
        match n {
            4 => forward_n::<4>(self, block, tmp, out),
            8 => forward_n::<8>(self, block, tmp, out),
            16 => forward_n::<16>(self, block, tmp, out),
            _ => forward_n::<32>(self, block, tmp, out),
        }
    }

    /// Inverse 2-D DCT, rounding to the nearest integer residual.
    ///
    /// Deterministic: both encoder reconstruction and decoder run exactly
    /// this code on the same dequantized coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n * n`.
    pub fn inverse(&self, coeffs: &[f64]) -> Vec<i32> {
        let mut tmp = Vec::new();
        let mut out = Vec::new();
        self.inverse_into(coeffs, &mut tmp, &mut out);
        out
    }

    /// [`Self::inverse`] into caller-owned buffers — same contract as
    /// [`Self::forward_into`].
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n * n`.
    pub fn inverse_into(&self, coeffs: &[f64], tmp: &mut Vec<f64>, out: &mut Vec<i32>) {
        let n = self.n;
        assert_eq!(coeffs.len(), n * n);
        tmp.resize(n * n, 0.0);
        out.resize(n * n, 0);
        match n {
            4 => inverse_n::<4>(self, coeffs, tmp, out),
            8 => inverse_n::<8>(self, coeffs, tmp, out),
            16 => inverse_n::<16>(self, coeffs, tmp, out),
            _ => inverse_n::<32>(self, coeffs, tmp, out),
        }
    }
}

/// A cache of DCT plans for all supported sizes.
#[derive(Debug, Clone)]
pub struct DctPlans {
    plans: [DctPlan; 4],
}

impl DctPlans {
    /// Builds plans for every supported size.
    pub fn new() -> Self {
        DctPlans {
            plans: [
                DctPlan::new(4),
                DctPlan::new(8),
                DctPlan::new(16),
                DctPlan::new(32),
            ],
        }
    }

    /// The process-wide plans, built on first use. Plans are pure
    /// functions of the size, so every caller sharing one set changes no
    /// output; it only saves rebuilding the bases per encode or tile read.
    pub fn shared() -> &'static DctPlans {
        static PLANS: OnceLock<DctPlans> = OnceLock::new();
        PLANS.get_or_init(DctPlans::new)
    }

    /// The plan for size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is unsupported.
    pub fn get(&self, n: usize) -> &DctPlan {
        match n {
            4 => &self.plans[0],
            8 => &self.plans[1],
            16 => &self.plans[2],
            32 => &self.plans[3],
            // lint:allow(panic): transform sizes come from profile
            // constants, never from bitstream input.
            _ => panic!("unsupported transform size {n}"),
        }
    }
}

impl Default for DctPlans {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;

    #[test]
    fn forward_inverse_identity() {
        let mut rng = Pcg32::seed_from(1);
        for &n in &SIZES {
            let plan = DctPlan::new(n);
            let block: Vec<i32> = (0..n * n).map(|_| rng.below(256) as i32 - 128).collect();
            let coeffs = plan.forward(&block);
            let back = plan.inverse(&coeffs);
            assert_eq!(back, block, "size {n}");
        }
    }

    #[test]
    fn dc_coefficient_is_scaled_mean() {
        let n = 8;
        let plan = DctPlan::new(n);
        let block = vec![100i32; n * n];
        let coeffs = plan.forward(&block);
        // Orthonormal 2-D DCT: DC = n * mean.
        assert!((coeffs[0] - 100.0 * n as f64).abs() < 1e-9);
        for (i, &c) in coeffs.iter().enumerate().skip(1) {
            assert!(c.abs() < 1e-9, "AC coeff {i} = {c}");
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut rng = Pcg32::seed_from(2);
        let n = 16;
        let plan = DctPlan::new(n);
        let block: Vec<i32> = (0..n * n).map(|_| rng.below(256) as i32 - 128).collect();
        let coeffs = plan.forward(&block);
        let e_spatial: f64 = block.iter().map(|&v| (v as f64).powi(2)).sum();
        let e_coeff: f64 = coeffs.iter().map(|&c| c * c).sum();
        assert!(
            (e_spatial - e_coeff).abs() / e_spatial < 1e-12,
            "parseval violated: {e_spatial} vs {e_coeff}"
        );
    }

    #[test]
    fn outlier_energy_is_spread_by_dct() {
        // Fig 3 of the paper: one outlier of 128 among small values; after
        // the DCT no coefficient should dwarf the rest the way the outlier
        // dwarfed its block.
        let n = 8;
        let plan = DctPlan::new(n);
        let mut block = vec![1i32; n * n];
        block[27] = 128;
        let peak_in = 128.0;
        let coeffs = plan.forward(&block);
        let peak_out = coeffs.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
        // Outlier amplitude is amortized: peak drops by > 4x.
        assert!(peak_out < peak_in / 4.0, "peak after dct {peak_out}");
    }

    #[test]
    fn smooth_blocks_compact_into_few_coeffs() {
        let n = 8;
        let plan = DctPlan::new(n);
        let block: Vec<i32> = (0..n * n).map(|i| (i % n) as i32 * 4).collect(); // ramp
        let coeffs = plan.forward(&block);
        let total: f64 = coeffs.iter().map(|&c| c * c).sum();
        let mut sorted: Vec<f64> = coeffs.iter().map(|&c| c * c).collect();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let top4: f64 = sorted.iter().take(4).sum();
        assert!(top4 / total > 0.95, "energy compaction {}", top4 / total);
    }

    #[test]
    fn into_variants_match_allocating_ones_bit_for_bit() {
        let mut rng = Pcg32::seed_from(3);
        let mut tmp = Vec::new();
        let mut coeffs_buf = Vec::new();
        let mut back_buf = Vec::new();
        for &n in &SIZES {
            let plan = DctPlan::new(n);
            let block: Vec<i32> = (0..n * n).map(|_| rng.below(256) as i32 - 128).collect();
            let coeffs = plan.forward(&block);
            // Buffers deliberately carry stale contents from the previous
            // size; the _into contract is that they are fully overwritten.
            plan.forward_into(&block, &mut tmp, &mut coeffs_buf);
            assert_eq!(coeffs_buf, coeffs, "forward size {n}");
            let back = plan.inverse(&coeffs);
            plan.inverse_into(&coeffs_buf, &mut tmp, &mut back_buf);
            assert_eq!(back_buf, back, "inverse size {n}");
        }
    }

    #[test]
    fn plans_cache_covers_all_sizes() {
        let plans = DctPlans::new();
        for &n in &SIZES {
            assert_eq!(plans.get(n).size(), n);
        }
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn unsupported_size_panics() {
        let _ = DctPlan::new(5);
    }

    /// The textbook triple loops the kernels must reproduce bit for bit:
    /// every output sums its products from `+0.0` in ascending index
    /// order, and the inverse rounds with `f64::round`.
    fn reference_forward(plan: &DctPlan, block: &[i32]) -> Vec<f64> {
        let n = plan.n;
        let mut tmp = vec![0.0; n * n];
        for y in 0..n {
            for k in 0..n {
                let mut acc = 0.0;
                for i in 0..n {
                    acc += block[y * n + i] as f64 * plan.basis[k * n + i];
                }
                tmp[y * n + k] = acc;
            }
        }
        let mut out = vec![0.0; n * n];
        for k in 0..n {
            for x in 0..n {
                let mut acc = 0.0;
                for i in 0..n {
                    acc += plan.basis[k * n + i] * tmp[i * n + x];
                }
                out[k * n + x] = acc;
            }
        }
        out
    }

    fn reference_inverse(plan: &DctPlan, coeffs: &[f64]) -> Vec<i32> {
        let n = plan.n;
        let mut tmp = vec![0.0; n * n];
        for i in 0..n {
            for x in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += plan.basis[k * n + i] * coeffs[k * n + x];
                }
                tmp[i * n + x] = acc;
            }
        }
        let mut out = vec![0; n * n];
        for y in 0..n {
            for i in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += tmp[y * n + k] * plan.basis[k * n + i];
                }
                out[y * n + i] = acc.round() as i32;
            }
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|c| c.to_bits()).collect()
    }

    #[test]
    fn fixed_size_kernels_match_the_textbook_loops_bit_for_bit() {
        let mut rng = Pcg32::seed_from(9);
        let plans = DctPlans::new();
        for &n in &SIZES {
            let plan = plans.get(n);
            for case in 0..40 {
                // Dense residuals of every magnitude, then sparse ones
                // whose coefficient blocks have zero rows and columns.
                let amp = [1, 3, 40, 256][case % 4];
                let block: Vec<i32> = (0..n * n)
                    .map(|_| {
                        if case >= 20 && rng.below(8) != 0 {
                            0
                        } else {
                            rng.below(2 * amp) as i32 - amp as i32
                        }
                    })
                    .collect();
                let coeffs = plan.forward(&block);
                assert_eq!(
                    bits(&coeffs),
                    bits(&reference_forward(plan, &block)),
                    "forward n={n} case {case}"
                );
                // Quantize-like sparsification: keep a few low-frequency
                // levels, some as -0.0, the rest zero.
                let step = [1.0, 7.5, 40.0, 300.0][case % 4];
                let deq: Vec<f64> = coeffs
                    .iter()
                    .map(|&c| {
                        let l = (c / step).trunc();
                        if l == 0.0 && c < 0.0 {
                            -0.0
                        } else {
                            l * step
                        }
                    })
                    .collect();
                for input in [&coeffs, &deq] {
                    assert_eq!(
                        plan.inverse(input),
                        reference_inverse(plan, input),
                        "inverse n={n} case {case}"
                    );
                }
            }
            // All-zero and single-coefficient blocks, non-finite values.
            let mut c = vec![0.0; n * n];
            assert_eq!(plan.inverse(&c), vec![0; n * n]);
            c[n + 1] = -0.0;
            assert_eq!(plan.inverse(&c), vec![0; n * n]);
            for v in [1e-300, 1.0, -3.5, 1e9, f64::INFINITY, f64::NAN] {
                c[(n - 1) * n + 2] = v;
                assert_eq!(plan.inverse(&c), reference_inverse(plan, &c), "n={n} v={v}");
            }
        }
    }

    #[test]
    fn shared_plans_are_built_once_and_match_fresh_ones() {
        let a = DctPlans::shared();
        assert!(std::ptr::eq(a, DctPlans::shared()));
        let block: Vec<i32> = (0..64).map(|i| (i * 37 % 255) - 127).collect();
        let fresh = DctPlan::new(8).forward(&block);
        assert_eq!(bits(&a.get(8).forward(&block)), bits(&fresh));
    }
}
