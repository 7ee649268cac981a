//! Deterministic SIMD lane kernels shared by the hot element-wise loops.
//!
//! The dead-zone quantizer (in [`crate::quant`]) and the tensor codec's
//! per-band f32→u8 affine map (in `llm265-core`) run the same kind of
//! loop: one independent output per input element, no cross-element
//! reduction. This module owns the lane machinery they share — a backend
//! enum picked once at runtime, plus a [`Lanes`] trait whose
//! implementations differ *only* in how many independent outputs advance
//! per step — and the call-free rounding helpers the quantizer and the
//! inverse DCT ([`crate::transform`]) use.
//!
//! # Bit-exactness contract
//!
//! Every backend executes the identical per-element IEEE operation
//! sequence — no fused multiply-add, no horizontal combine, no
//! re-association. The blocking shape mirrors one vector register of the
//! backend's ISA level (2 × f64 for SSE2, 4 × f64 for AVX2), which is
//! what LLVM turns into the corresponding packed instructions, but the
//! per-lane arithmetic is the scalar expression verbatim. Scalar and
//! SIMD therefore produce bit-identical results, and the encoded streams
//! match the golden hashes on every machine (CI pins this with
//! `-Ctarget-cpu=x86-64` and `x86-64-v3` legs). AVX2 is additionally
//! compile-time gated under the workspace's no-`unsafe` policy — see
//! DESIGN.md ("Deterministic SIMD").

/// Which vector unit executes the lane kernels. Variants exist only where
/// the corresponding instructions compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneBackend {
    /// Portable one-output-per-step scalar lanes.
    Scalar,
    /// 128-bit SSE2 lanes (part of the x86-64 baseline).
    #[cfg(target_arch = "x86_64")]
    Sse2,
    /// 256-bit AVX2 lanes; compiled only when the build statically enables
    /// the feature (e.g. `RUSTFLAGS=-Ctarget-cpu=x86-64-v3`), so the lane
    /// shape matches the instructions LLVM may actually emit.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    Avx2,
}

/// Picks the widest compiled-in lane backend the running CPU supports.
///
/// Pure backend selector: the choice never alters any kernel's
/// arithmetic — every backend executes the identical per-output operation
/// sequence — it only decides how many independent outputs advance per
/// instruction. This is what keeps runtime CPU detection out of the
/// determinism lint's way.
pub(crate) fn detect_lane_backend() -> LaneBackend {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return LaneBackend::Avx2;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse2") {
            return LaneBackend::Sse2;
        }
    }
    LaneBackend::Scalar
}

/// Every compiled-in backend, scalar first — test helper for the
/// backend-equivalence suites in this crate.
#[cfg(test)]
pub(crate) fn compiled_backends() -> Vec<LaneBackend> {
    let mut v = vec![LaneBackend::Scalar];
    #[cfg(target_arch = "x86_64")]
    v.push(LaneBackend::Sse2);
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    v.push(LaneBackend::Avx2);
    v
}

/// `f64::round(x) as i32` — round half away from zero, saturating, NaN
/// to 0 — without the library call that `round` compiles to on targets
/// without SSE4.1, and without a branch.
///
/// After clamping to the `i32` range (which changes no saturated result,
/// and keeps NaN), the truncated integer part `t` is exact and so is the
/// fraction `x - t`: `t` is a multiple of `x`'s ulp, and the difference
/// is below one. Stepping `t` one away from zero when the fraction
/// reaches `±0.5` is then the exact tie-away rounding, and it cannot
/// leave the range: the clamped `x` already rounds into it.
#[inline]
pub(crate) fn round_to_i32(x: f64) -> i32 {
    let x: f64 = x.clamp(f64::from(i32::MIN), f64::from(i32::MAX));
    let t = x as i32;
    let frac = x - f64::from(t);
    t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)
}

/// The dead-zone quantizer's per-coefficient expression (see
/// [`crate::quant::Quantizer::quantize`]): shared by every lane backend so
/// the operation sequence cannot drift between them.
///
/// It equals `floor(|c| / step + offset)` clamped to `i32::MAX`, times
/// `signum(c)`, for `step > 0` and `offset >= 0`. The magnitude is then
/// `>= 0` or NaN, so Rust's saturating `as i32` cast (which truncates,
/// and truncation is `floor` for non-negative values) does the floor and
/// the clamp in one instruction, and maps NaN to 0. The sign comes from
/// the sign bit, so `-0.0` and a negative NaN give 0.
#[inline]
pub(crate) fn quantize_one(c: f64, step: f64, offset: f64) -> i32 {
    let scaled: f64 = c.abs() / step + offset;
    let mag = scaled as i32;
    if c.is_sign_negative() {
        -mag
    } else {
        mag
    }
}

/// The per-band affine map's per-value expression (`llm265-core`'s
/// f32→u8 quantization): non-finite values collapse to 0, everything else
/// maps through round-and-clamp. Shared by every lane backend.
#[inline]
fn affine_one(v: f32, lo: f32, scale: f32) -> u8 {
    if !v.is_finite() {
        0
    } else {
        (((v - lo) / scale).round()).clamp(0.0, 255.0) as u8
    }
}

/// A lane backend: element-wise ("vertical") kernels only. Every
/// implementation performs the identical per-lane operation sequence;
/// the backends differ only in their blocking shape.
pub(crate) trait Lanes: Copy {
    /// Dead-zone-quantizes `coeffs[j]` into `out[j]`; equal lengths.
    fn quantize(self, coeffs: &[f64], step: f64, offset: f64, out: &mut [i32]);

    /// Affine-maps `src[j]` into `out[j]` (f32→u8); equal lengths, any
    /// length (rows are not padded to the lane width).
    fn affine_u8(self, src: &[f32], lo: f32, scale: f32, out: &mut [u8]);
}

/// Portable reference lanes: one output per step, the textbook loop.
#[derive(Clone, Copy)]
pub(crate) struct ScalarLanes;

impl Lanes for ScalarLanes {
    #[inline]
    fn quantize(self, coeffs: &[f64], step: f64, offset: f64, out: &mut [i32]) {
        for (o, &c) in out.iter_mut().zip(coeffs) {
            *o = quantize_one(c, step, offset);
        }
    }

    #[inline]
    fn affine_u8(self, src: &[f32], lo: f32, scale: f32, out: &mut [u8]) {
        for (o, &v) in out.iter_mut().zip(src) {
            *o = affine_one(v, lo, scale);
        }
    }
}

/// SSE2-shaped lanes: explicit 2-wide groups matching one 128-bit
/// register (2 × f64), the x86-64 baseline vector width. The f32 kernel
/// uses 4-wide groups (4 × f32 per 128-bit register).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Sse2Lanes;

#[cfg(target_arch = "x86_64")]
impl Lanes for Sse2Lanes {
    #[inline]
    fn quantize(self, coeffs: &[f64], step: f64, offset: f64, out: &mut [i32]) {
        let mut chunks = out.chunks_exact_mut(2);
        let mut cs = coeffs.chunks_exact(2);
        for (o, c) in (&mut chunks).zip(&mut cs) {
            o[0] = quantize_one(c[0], step, offset);
            o[1] = quantize_one(c[1], step, offset);
        }
        for (o, &c) in chunks.into_remainder().iter_mut().zip(cs.remainder()) {
            *o = quantize_one(c, step, offset);
        }
    }

    #[inline]
    fn affine_u8(self, src: &[f32], lo: f32, scale: f32, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(4);
        let mut vs = src.chunks_exact(4);
        for (o, v) in (&mut chunks).zip(&mut vs) {
            o[0] = affine_one(v[0], lo, scale);
            o[1] = affine_one(v[1], lo, scale);
            o[2] = affine_one(v[2], lo, scale);
            o[3] = affine_one(v[3], lo, scale);
        }
        for (o, &v) in chunks.into_remainder().iter_mut().zip(vs.remainder()) {
            *o = affine_one(v, lo, scale);
        }
    }
}

/// AVX2-shaped lanes: explicit 4-wide groups matching one 256-bit
/// register (4 × f64; 8 × f32 for the affine kernel). Compiled only when
/// the build statically enables the feature so that the blocking shape
/// and the instruction set LLVM emits for it agree.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
#[derive(Clone, Copy)]
pub(crate) struct Avx2Lanes;

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
impl Lanes for Avx2Lanes {
    #[inline]
    fn quantize(self, coeffs: &[f64], step: f64, offset: f64, out: &mut [i32]) {
        let mut chunks = out.chunks_exact_mut(4);
        let mut cs = coeffs.chunks_exact(4);
        for (o, c) in (&mut chunks).zip(&mut cs) {
            o[0] = quantize_one(c[0], step, offset);
            o[1] = quantize_one(c[1], step, offset);
            o[2] = quantize_one(c[2], step, offset);
            o[3] = quantize_one(c[3], step, offset);
        }
        for (o, &c) in chunks.into_remainder().iter_mut().zip(cs.remainder()) {
            *o = quantize_one(c, step, offset);
        }
    }

    #[inline]
    fn affine_u8(self, src: &[f32], lo: f32, scale: f32, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(8);
        let mut vs = src.chunks_exact(8);
        for (o, v) in (&mut chunks).zip(&mut vs) {
            o[0] = affine_one(v[0], lo, scale);
            o[1] = affine_one(v[1], lo, scale);
            o[2] = affine_one(v[2], lo, scale);
            o[3] = affine_one(v[3], lo, scale);
            o[4] = affine_one(v[4], lo, scale);
            o[5] = affine_one(v[5], lo, scale);
            o[6] = affine_one(v[6], lo, scale);
            o[7] = affine_one(v[7], lo, scale);
        }
        for (o, &v) in chunks.into_remainder().iter_mut().zip(vs.remainder()) {
            *o = affine_one(v, lo, scale);
        }
    }
}

/// Dead-zone-quantizes a coefficient block on a chosen backend; the
/// dispatch half of [`crate::quant::Quantizer::quantize_block_into`].
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub(crate) fn quantize_block_on(
    backend: LaneBackend,
    coeffs: &[f64],
    step: f64,
    offset: f64,
    out: &mut [i32],
) {
    assert_eq!(coeffs.len(), out.len(), "quantize block length mismatch");
    match backend {
        LaneBackend::Scalar => ScalarLanes.quantize(coeffs, step, offset, out),
        #[cfg(target_arch = "x86_64")]
        LaneBackend::Sse2 => Sse2Lanes.quantize(coeffs, step, offset, out),
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        LaneBackend::Avx2 => Avx2Lanes.quantize(coeffs, step, offset, out),
    }
}

/// Affine-maps a row of f32 values to 8-bit pixels:
/// `out[j] = clamp(round((src[j] - lo) / scale), 0, 255)`, with
/// non-finite inputs collapsing to 0.
///
/// This is the tensor codec's per-band quantization inner loop
/// (`llm265-core`); it lives here so it runs on the same deterministic
/// lane backends as the quantizer. The result is bit-identical on every
/// backend. `scale` must be non-zero (flat bands are the caller's
/// zero-fill fast path).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn affine_map_u8(src: &[f32], lo: f32, scale: f32, out: &mut [u8]) {
    assert_eq!(src.len(), out.len(), "affine map length mismatch");
    match detect_lane_backend() {
        LaneBackend::Scalar => ScalarLanes.affine_u8(src, lo, scale, out),
        #[cfg(target_arch = "x86_64")]
        LaneBackend::Sse2 => Sse2Lanes.affine_u8(src, lo, scale, out),
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        LaneBackend::Avx2 => Avx2Lanes.affine_u8(src, lo, scale, out),
    }
}

#[cfg(test)]
fn affine_map_u8_on(backend: LaneBackend, src: &[f32], lo: f32, scale: f32, out: &mut [u8]) {
    assert_eq!(src.len(), out.len(), "affine map length mismatch");
    match backend {
        LaneBackend::Scalar => ScalarLanes.affine_u8(src, lo, scale, out),
        #[cfg(target_arch = "x86_64")]
        LaneBackend::Sse2 => Sse2Lanes.affine_u8(src, lo, scale, out),
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        LaneBackend::Avx2 => Avx2Lanes.affine_u8(src, lo, scale, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;

    /// Coefficient fixture mixing magnitudes, signs, exact zeros and
    /// non-finite values — every case the quantizer's expression branches
    /// on.
    fn coeff_fixture(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Pcg32::seed_from(seed);
        let mut v: Vec<f64> = (0..n)
            .map(|_| (rng.normal() * 40.0) + if rng.below(4) == 0 { 900.0 } else { 0.0 })
            .collect();
        if n >= 4 {
            v[0] = 0.0;
            v[1] = -0.0;
            v[2] = f64::NAN;
            v[3] = f64::INFINITY;
        }
        v
    }

    /// Edge cases of both rounding helpers: ties, the largest value
    /// below one half, `±2^52`, the `i32` bounds and the values just past
    /// them, signed zeros, infinities and NaN.
    fn rounding_fixture() -> Vec<f64> {
        let two52 = 4_503_599_627_370_496.0f64;
        let mut v = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.499_999_999_999_999_94,
            -0.499_999_999_999_999_94,
            0.500_000_000_000_000_1,
            1.0 - f64::EPSILON / 2.0,
            two52,
            -two52,
            two52 - 0.5,
            -(two52 - 0.5),
            two52 - 1.0,
            two52 + 1.0,
            2.0 * two52 + 2.0,
            4_294_967_296.5,
            -4_294_967_296.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MAX,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 4.0,
            i32::MAX as f64,
            i32::MAX as f64 + 0.5,
            i32::MAX as f64 - 0.5,
            i32::MIN as f64,
            i32::MIN as f64 - 0.5,
            i32::MIN as f64 + 0.5,
            2_147_483_648.0,
            i32::MAX as f64 - 1.5,
            i32::MIN as f64 - 1.0,
            i32::MIN as f64 + 1.5,
            1e12,
            -1e12,
        ];
        let mut rng = Pcg32::seed_from(17);
        for _ in 0..20_000 {
            let scale = [1.0, 8.0, 300.0, 1e6, 1e15][rng.below(5) as usize];
            let x = rng.normal() * scale;
            v.push(x);
            // Exact ties at every magnitude.
            v.push(x.trunc() + 0.5);
        }
        v
    }

    #[test]
    fn round_to_i32_matches_f64_round_then_cast() {
        for x in rounding_fixture() {
            assert_eq!(round_to_i32(x), x.round() as i32, "x = {x:e}");
        }
    }

    /// The floor/clamp/signum expression `quantize_one` must equal.
    fn quantize_reference(c: f64, step: f64, offset: f64) -> i32 {
        let mag = (c.abs() / step + offset).floor();
        (mag.min(i32::MAX as f64) as i32) * c.signum() as i32
    }

    #[test]
    fn quantize_one_matches_the_floor_signum_reference() {
        let mut coeffs = rounding_fixture();
        for k in [1.0f64, 2.0, 3.0, 1000.0] {
            // Exactly on and next to the dead-zone boundaries.
            let b = (k - 1.0 / 3.0) * 16.0;
            coeffs.extend([b, -b, b.next_up(), b.next_down(), -b.next_up()]);
        }
        for &(step, offset) in &[
            (0.5f64, 1.0 / 3.0),
            (16.0, 1.0 / 3.0),
            (181.0, 0.5),
            (1e-3, 0.0),
        ] {
            for &c in &coeffs {
                assert_eq!(
                    quantize_one(c, step, offset),
                    quantize_reference(c, step, offset),
                    "c = {c:e}, step = {step}"
                );
            }
        }
    }

    #[test]
    fn every_backend_quantizes_bit_for_bit() {
        // Odd lengths exercise the remainder lanes too.
        for &n in &[16usize, 64, 1024, 7, 33] {
            let coeffs = coeff_fixture(n, 11);
            for &(step, offset) in &[(0.5f64, 1.0 / 3.0), (16.0, 1.0 / 3.0), (181.0, 0.5)] {
                let mut want = vec![0i32; n];
                ScalarLanes.quantize(&coeffs, step, offset, &mut want);
                for backend in compiled_backends() {
                    let mut got = vec![7i32; n]; // stale contents must be overwritten
                    quantize_block_on(backend, &coeffs, step, offset, &mut got);
                    assert_eq!(got, want, "{backend:?} n={n} step={step}");
                }
            }
        }
    }

    #[test]
    fn every_backend_affine_maps_bit_for_bit() {
        for &n in &[4usize, 8, 256, 5, 1023] {
            let mut rng = Pcg32::seed_from(5);
            let mut src: Vec<f32> = (0..n).map(|_| (rng.normal() * 0.2) as f32).collect();
            if n >= 4 {
                src[0] = f32::NAN;
                src[1] = f32::INFINITY;
                src[2] = f32::NEG_INFINITY;
                src[3] = -1000.0; // clamps to 0
            }
            let (lo, scale) = (-0.7f32, 0.01f32);
            let mut want = vec![0u8; n];
            ScalarLanes.affine_u8(&src, lo, scale, &mut want);
            for backend in compiled_backends() {
                let mut got = vec![9u8; n]; // stale contents must be overwritten
                affine_map_u8_on(backend, &src, lo, scale, &mut got);
                assert_eq!(got, want, "{backend:?} n={n}");
            }
        }
    }

    #[test]
    fn affine_map_matches_the_scalar_expression() {
        let src = [0.0f32, 0.5, 1.0, -0.25, f32::NAN, 2.0];
        let (lo, scale) = (-0.25f32, 0.0125f32);
        let mut out = vec![0u8; src.len()];
        affine_map_u8(&src, lo, scale, &mut out);
        for (i, &v) in src.iter().enumerate() {
            let want = if !v.is_finite() {
                0
            } else {
                (((v - lo) / scale).round()).clamp(0.0, 255.0) as u8
            };
            assert_eq!(out[i], want, "element {i}");
        }
    }

    #[test]
    fn detected_backend_is_compiled_in() {
        assert!(matches!(
            detect_lane_backend(),
            b if {
                let all = compiled_backends();
                all.contains(&b)
            }
        ));
    }
}
