//! Per-call cost of the video codec's kernels on a workload's own data.
//!
//! Each probe cuts an 8-bit frame from one of the workload's tensors with
//! the codec's own affine map and times one kernel over every block of
//! it, at every transform size. These are per-call costs, not shares of
//! the workload's wall time.

use std::hint::black_box;
use std::time::Instant;

use llm265_bitstream::cabac::{CabacDecoder, CabacEncoder, Prob};
use llm265_tensor::Tensor;
use llm265_videocodec::intra::{PredMode, RefSamples};
use llm265_videocodec::lanes::affine_map_u8;
use llm265_videocodec::quant::Quantizer;
use llm265_videocodec::syntax::{code_residual, parse_residual, BinSink, BitCounter, Contexts};
use llm265_videocodec::transform::{DctPlan, SIZES};
use llm265_videocodec::{decode_video, encode_video, CodecConfig, Frame, Profile};

/// Timing repetitions per probe; the median is reported.
const REPS: usize = 5;
/// Largest frame side cut from a tensor.
const MAX_SIDE: usize = 256;

/// Kernel costs on one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCosts {
    pub encode_ms_per_mpix: f64,
    pub decode_ms_per_mpix: f64,
    pub intra_ns_per_pred: f64,
    pub transform_ns_per_coeff: f64,
    pub quant_ns_per_coeff: f64,
    pub rd_cost_ns_per_bin: f64,
    pub cabac_encode_ns_per_bin: f64,
    pub cabac_decode_ns_per_bin: f64,
    pub cabac_bins: u64,
    /// Whether every round trip the probes made came back exact.
    pub exact: bool,
}

/// Counts bins: the number of symbols a syntax sequence hands the
/// entropy coder.
#[derive(Debug, Default)]
struct BinTally(u64);

impl BinSink for BinTally {
    fn bit(&mut self, ctx: &mut Prob, b: bool) {
        self.0 += 1;
        ctx.update(b);
    }
    fn bypass(&mut self, _b: bool) {
        self.0 += 1;
    }
}

/// The top-left `≤ MAX_SIDE` square of `t` (sides cut to whole 32-pixel
/// blocks), mapped to 8-bit pixels over its own value range.
pub fn frame_from(t: &Tensor) -> Frame {
    let w = (t.cols().min(MAX_SIDE) / 32).max(1) * 32;
    let h = (t.rows().min(MAX_SIDE) / 32).max(1) * 32;
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for r in 0..h.min(t.rows()) {
        for &v in &t.row(r)[..w.min(t.cols())] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let scale = if hi > lo { (hi - lo) / 255.0 } else { 1.0 };
    let mut px = vec![0u8; w * h];
    for (y, out) in px.chunks_mut(w).enumerate() {
        if y < t.rows() {
            let row = &t.row(y)[..w.min(t.cols())];
            affine_map_u8(row, lo, scale, &mut out[..row.len()]);
        }
    }
    Frame::from_vec(w, h, px)
}

/// Median seconds of `REPS` runs of `f`.
fn time_median(mut f: impl FnMut()) -> f64 {
    let ts: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&ts).unwrap_or(f64::NAN)
}

/// Every block origin of size `n` in the frame.
fn blocks(f: &Frame, n: usize) -> impl Iterator<Item = (usize, usize)> {
    let (w, h) = (f.width(), f.height());
    (0..h / n).flat_map(move |by| (0..w / n).map(move |bx| (bx * n, by * n)))
}

/// Quantized DC-prediction residual levels of every block, per size.
fn residual_levels(f: &Frame, q: &Quantizer) -> Vec<(usize, Vec<i32>)> {
    let mut out = Vec::new();
    let (mut blk, mut tmp, mut coeffs, mut pred) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for n in SIZES {
        let plan = DctPlan::new(n);
        for (x, y) in blocks(f, n) {
            blk.resize(n * n, 0);
            f.read_block(x, y, n, &mut blk);
            RefSamples::gather(f, x, y, n).predict_into(PredMode::Dc, &mut pred);
            for (b, p) in blk.iter_mut().zip(&pred) {
                *b -= p;
            }
            plan.forward_into(&blk, &mut tmp, &mut coeffs);
            let mut levels = Vec::new();
            q.quantize_block_into(&coeffs, &mut levels);
            out.push((n, levels));
        }
    }
    out
}

/// Measures every kernel on `frame` at `qp`.
pub fn measure(frame: &Frame, qp: f64) -> KernelCosts {
    let profile = Profile::h265();
    let mpix = (frame.width() * frame.height()) as f64 / 1e6;
    let mut exact = true;

    let cfg = CodecConfig {
        profile: profile.clone(),
        qp,
        ..CodecConfig::default()
    };
    let frames = std::slice::from_ref(frame);
    let enc = encode_video(frames, &cfg);
    let encode_s = time_median(|| {
        black_box(encode_video(black_box(frames), &cfg));
    });
    let decode_s = time_median(|| {
        black_box(decode_video(black_box(&enc.bytes)).ok());
    });
    exact &= decode_video(&enc.bytes).is_ok_and(|d| d == enc.recon);

    let mut preds = 0u64;
    let mut out = Vec::new();
    let intra_s = time_median(|| {
        preds = 0;
        for n in SIZES {
            for (x, y) in blocks(frame, n) {
                let refs = RefSamples::gather(frame, x, y, n);
                for &m in profile.modes() {
                    refs.predict_into(m, &mut out);
                    black_box(&out);
                    preds += 1;
                }
            }
        }
    });

    let q = Quantizer::from_qp(qp);
    let plans: Vec<DctPlan> = SIZES.iter().map(|&n| DctPlan::new(n)).collect();
    let pixel_blocks: Vec<(&DctPlan, Vec<i32>)> = plans
        .iter()
        .flat_map(|plan| {
            let n = plan.size();
            blocks(frame, n).map(move |(x, y)| {
                let mut b = vec![0; n * n];
                frame.read_block(x, y, n, &mut b);
                (plan, b)
            })
        })
        .collect();
    let coeffs_n: usize = pixel_blocks.iter().map(|(_, b)| b.len()).sum();
    let (mut tmp, mut coeffs, mut back) = (Vec::new(), Vec::new(), Vec::new());
    let transform_s = time_median(|| {
        for (plan, b) in &pixel_blocks {
            plan.forward_into(b, &mut tmp, &mut coeffs);
            plan.inverse_into(&coeffs, &mut tmp, &mut back);
            black_box(&back);
        }
    });
    let coeff_blocks: Vec<Vec<f64>> = pixel_blocks.iter().map(|(p, b)| p.forward(b)).collect();
    let (mut levels, mut deq) = (Vec::new(), Vec::new());
    let quant_s = time_median(|| {
        for c in &coeff_blocks {
            q.quantize_block_into(c, &mut levels);
            q.dequantize_block_into(&levels, &mut deq);
            black_box(&deq);
        }
    });

    let residuals = residual_levels(frame, &q);
    let mut tally = BinTally::default();
    let mut ctxs = Contexts::new();
    for (n, l) in &residuals {
        code_residual(&mut tally, &mut ctxs, l, *n, false);
    }
    let bins = tally.0.max(1);
    let rd_s = time_median(|| {
        let mut ctxs = Contexts::new();
        let mut bc = BitCounter::new();
        for (n, l) in &residuals {
            code_residual(&mut bc, &mut ctxs, l, *n, false);
        }
        black_box(bc.bits());
    });
    let code = || {
        let mut ctxs = Contexts::new();
        let mut enc = CabacEncoder::new();
        for (n, l) in &residuals {
            code_residual(&mut enc, &mut ctxs, l, *n, false);
        }
        enc.finish()
    };
    let cabac_enc_s = time_median(|| {
        black_box(code());
    });
    let bytes = code();
    let parse = || {
        let mut ctxs = Contexts::new();
        let mut dec = CabacDecoder::new(&bytes);
        residuals
            .iter()
            .all(|(n, l)| parse_residual(&mut dec, &mut ctxs, *n, false).is_ok_and(|p| &p == l))
    };
    let cabac_dec_s = time_median(|| {
        black_box(parse());
    });
    exact &= parse();

    KernelCosts {
        encode_ms_per_mpix: encode_s * 1e3 / mpix,
        decode_ms_per_mpix: decode_s * 1e3 / mpix,
        intra_ns_per_pred: intra_s * 1e9 / preds.max(1) as f64,
        transform_ns_per_coeff: transform_s * 1e9 / coeffs_n.max(1) as f64,
        quant_ns_per_coeff: quant_s * 1e9 / coeffs_n.max(1) as f64,
        rd_cost_ns_per_bin: rd_s * 1e9 / bins as f64,
        cabac_encode_ns_per_bin: cabac_enc_s * 1e9 / bins as f64,
        cabac_decode_ns_per_bin: cabac_dec_s * 1e9 / bins as f64,
        cabac_bins: bins,
        exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_round_trip_exactly_on_a_small_frame() {
        let t = crate::gen::weight(1, 0, 40, 70);
        let f = frame_from(&t);
        assert_eq!((f.width(), f.height()), (64, 32));
        let k = measure(&f, 30.0);
        assert!(k.exact);
        assert!(k.cabac_bins > 0);
        for v in [
            k.encode_ms_per_mpix,
            k.intra_ns_per_pred,
            k.cabac_decode_ns_per_bin,
        ] {
            assert!(v.is_finite() && v > 0.0);
        }
    }
}
