//! Intra-frame prediction.
//!
//! §3.1 of the paper observes that LLM weight matrices, viewed as images,
//! contain the planar regions and channel-wise "edges" that intra
//! prediction was designed for, and that the intra predictor captures the
//! channel-wise scale structure with a handful of prediction states,
//! leaving small residuals (Fig 4). This module implements the HEVC mode
//! family — DC, Planar and 33 angular directions with 1/32-pel reference
//! interpolation — plus the Paeth and Smooth predictors for the AV1-like
//! profile.
//!
//! Prediction always reads *reconstructed* neighbour pixels, so encoder
//! and decoder compute identical predictions.

use crate::Frame;

/// An intra prediction mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredMode {
    /// Mean of the reference samples.
    Dc,
    /// HEVC planar: bilinear blend of the reference edges.
    Planar,
    /// HEVC angular mode 2..=34 (10 = horizontal, 26 = vertical).
    Angular(u8),
    /// AV1 Paeth predictor (nearest of top/left/corner to their sum-diff).
    Paeth,
    /// AV1-like smooth blend of top and left edges.
    Smooth,
    /// AV1-like smooth blend, vertical only.
    SmoothV,
    /// AV1-like smooth blend, horizontal only.
    SmoothH,
}

impl PredMode {
    /// The H.265 mode set: Planar, DC and all 33 angular directions.
    pub fn h265_set() -> Vec<PredMode> {
        let mut v = vec![PredMode::Planar, PredMode::Dc];
        v.extend((2..=34).map(PredMode::Angular));
        v
    }

    /// The H.264-like 9-direction set (DC, V, H and six diagonals).
    pub fn h264_set() -> Vec<PredMode> {
        vec![
            PredMode::Dc,
            PredMode::Angular(26), // vertical
            PredMode::Angular(10), // horizontal
            PredMode::Angular(34), // down-left
            PredMode::Angular(18), // down-right
            PredMode::Angular(22),
            PredMode::Angular(14),
            PredMode::Angular(30),
            PredMode::Angular(6),
        ]
    }

    /// The AV1-like set: H.265 modes plus Paeth and the Smooth family.
    pub fn av1_set() -> Vec<PredMode> {
        let mut v = Self::h265_set();
        v.extend([
            PredMode::Paeth,
            PredMode::Smooth,
            PredMode::SmoothV,
            PredMode::SmoothH,
        ]);
        v
    }
}

/// HEVC `intraPredAngle` for modes 2..=34.
const ANGLES: [i32; 33] = [
    32, 26, 21, 17, 13, 9, 5, 2, 0, -2, -5, -9, -13, -17, -21, -26, -32, -26, -21, -17, -13, -9,
    -5, -2, 0, 2, 5, 9, 13, 17, 21, 26, 32,
];

/// HEVC `invAngle` for negative angles (|angle| in {2,5,9,13,17,21,26,32}).
fn inv_angle(a: i32) -> i32 {
    match a.abs() {
        2 => 4096,
        5 => 1638,
        9 => 910,
        13 => 630,
        17 => 482,
        21 => 390,
        26 => 315,
        32 => 256,
        // lint:allow(panic): only called with angles from the ANGLES table.
        _ => unreachable!("no inverse angle for {a}"),
    }
}

/// Largest block side intra prediction serves (the H.265 CTU).
const MAX_N: usize = 32;
/// Length of a reference row: HEVC `ref[-MAX_N..=2 * MAX_N]` plus one
/// repeat of the last sample.
const ROW_LEN: usize = 3 * MAX_N + 2;
/// Index of HEVC `ref[0]`, the corner sample, in a reference row.
const REF0: usize = MAX_N;

/// Reference samples around an `n × n` block, prepared from the
/// reconstructed frame with HEVC-style substitution for unavailable edges.
///
/// They are stored as the two reference rows the angular modes read,
/// `above` for the vertical modes and `beside` for the horizontal ones:
/// `row[REF0]` is the corner, `row[REF0 + 1 + i]` is `top[i]` (resp.
/// `left[i]`) for `i` in `0..2n`, and the last of those repeats once more
/// so that the interpolation's far tap at the end of the row reads that
/// repeat instead of clamping its index. Entries below `REF0` are filled
/// per mode, in a copy, by the negative-angle projection.
#[derive(Debug, Clone)]
pub struct RefSamples {
    n: usize,
    above: [i32; ROW_LEN],
    beside: [i32; ROW_LEN],
}

/// An angular mode's reference row and geometry.
struct Angular<'a> {
    row: &'a [i32; ROW_LEN],
    angle: i32,
    vertical: bool,
}

impl Angular<'_> {
    /// The `n + 1` reference samples and the 1/32-pel fraction that
    /// predict line `j` (a row for vertical modes, a column for
    /// horizontal ones): sample `i` of the line is
    /// `interp(frac, w[i], w[i + 1])`.
    #[inline]
    fn line(&self, j: usize, n: usize) -> (&[i32], i32) {
        // `j < n <= 32` and `|angle| <= 32`, so `pos >> 5` lies in
        // `-n..=n` and the line lies inside the row.
        let pos = (i32::try_from(j).unwrap_or(0) + 1) * self.angle;
        // lint:allow(cast): `REF0` is the constant 32.
        let base = usize::try_from(REF0 as i32 + 1 + (pos >> 5)).unwrap_or(0);
        (&self.row[base..=base + n], pos & 31)
    }
}

/// One interpolated angular sample, HEVC's
/// `((32 - frac) * a + frac * b + 16) >> 5` for `frac` in `0..32` and
/// samples in `0..=255`. The numerator is `32 * a + frac * (b - a) + 16`,
/// and the arithmetic shift floors, so `a` comes out of it exactly: one
/// multiply per sample instead of two.
#[inline]
fn interp(frac: i32, a: i32, b: i32) -> i32 {
    a + ((frac * (b - a) + 16) >> 5)
}

impl RefSamples {
    /// Gathers reference samples for the block at `(x0, y0)`.
    ///
    /// Samples right of / below the frame are edge-replicated; when a whole
    /// side is unavailable (frame boundary) it is substituted from the
    /// other side, or 128 if neither exists.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds 32, the largest CTU.
    pub fn gather(recon: &Frame, x0: usize, y0: usize, n: usize) -> Self {
        let have_top = y0 > 0;
        let have_left = x0 > 0;
        let (w, h) = (recon.width(), recon.height());

        let mut above = [0i32; ROW_LEN];
        let mut beside = [0i32; ROW_LEN];
        let edge = REF0 + 1..=REF0 + 2 * n;
        let top = &mut above[edge.clone()];
        let left = &mut beside[edge];
        let corner;

        match (have_top, have_left) {
            (false, false) => {
                top.fill(128);
                left.fill(128);
                corner = 128;
            }
            (true, false) => {
                for (i, t) in top.iter_mut().enumerate() {
                    *t = recon.get((x0 + i).min(w - 1), y0 - 1) as i32;
                }
                corner = top[0];
                left.fill(corner);
            }
            (false, true) => {
                for (i, l) in left.iter_mut().enumerate() {
                    *l = recon.get(x0 - 1, (y0 + i).min(h - 1)) as i32;
                }
                corner = left[0];
                top.fill(corner);
            }
            (true, true) => {
                for (i, t) in top.iter_mut().enumerate() {
                    *t = recon.get((x0 + i).min(w - 1), y0 - 1) as i32;
                }
                for (i, l) in left.iter_mut().enumerate() {
                    *l = recon.get(x0 - 1, (y0 + i).min(h - 1)) as i32;
                }
                corner = recon.get(x0 - 1, y0 - 1) as i32;
            }
        }
        for row in [&mut above, &mut beside] {
            row[REF0] = corner;
            row[REF0 + 2 * n + 1] = row[REF0 + 2 * n];
        }
        RefSamples { n, above, beside }
    }

    /// Block size the references were gathered for.
    pub fn size(&self) -> usize {
        self.n
    }

    fn corner(&self) -> i32 {
        self.above[REF0]
    }

    /// `top[i]` = reconstructed pixel at `(x0 + i, y0 - 1)`, `i` in `0..2n`.
    fn top(&self) -> &[i32] {
        &self.above[REF0 + 1..=REF0 + 2 * self.n]
    }

    /// `left[i]` = reconstructed pixel at `(x0 - 1, y0 + i)`, `i` in `0..2n`.
    fn left(&self) -> &[i32] {
        &self.beside[REF0 + 1..=REF0 + 2 * self.n]
    }

    /// Computes the prediction block (row-major `n × n`) for `mode`.
    pub fn predict(&self, mode: PredMode) -> Vec<i32> {
        let mut out = Vec::new();
        self.predict_into(mode, &mut out);
        out
    }

    /// [`Self::predict`] into a caller-owned buffer, for callers that
    /// predict many blocks and would otherwise allocate one per call.
    pub fn predict_into(&self, mode: PredMode, out: &mut Vec<i32>) {
        out.clear();
        out.resize(self.n * self.n, 0);
        self.predict_slice(mode, out);
    }

    fn predict_slice(&self, mode: PredMode, out: &mut [i32]) {
        match mode {
            PredMode::Dc => self.predict_dc(out),
            PredMode::Planar => self.predict_planar(out),
            PredMode::Angular(m) => self.predict_angular(m, out),
            PredMode::Paeth => self.predict_paeth(out),
            PredMode::Smooth => self.predict_smooth(true, true, out),
            PredMode::SmoothV => self.predict_smooth(true, false, out),
            PredMode::SmoothH => self.predict_smooth(false, true, out),
        }
    }

    /// Sum of absolute differences between `orig` (row-major `n × n`) and
    /// the prediction for `mode` — the encoder's mode-sweep score —
    /// without materializing the prediction for angular modes. `orig_t`
    /// is `orig` transposed: horizontal modes predict column by column,
    /// so they compare against it row by row. Integer sums do not depend
    /// on order, so the result equals the SAD against
    /// [`Self::predict`]'s block exactly.
    ///
    /// # Panics
    ///
    /// Panics if `orig` or `orig_t` is shorter than `n * n`.
    pub fn sad(&self, mode: PredMode, orig: &[i32], orig_t: &[i32]) -> u64 {
        // `n` is 4, 8, 16 or 32 (a CU size), so each size gets a kernel
        // with constant loop bounds.
        let sad = match self.n {
            4 => self.sad_n::<4>(mode, orig, orig_t),
            8 => self.sad_n::<8>(mode, orig, orig_t),
            16 => self.sad_n::<16>(mode, orig, orig_t),
            _ => self.sad_n::<32>(mode, orig, orig_t),
        };
        u64::from(sad)
    }

    fn sad_n<const N: usize>(&self, mode: PredMode, orig: &[i32], orig_t: &[i32]) -> u32 {
        let mut sad = 0u32;
        if let PredMode::Angular(m) = mode {
            let mut scratch = [0i32; ROW_LEN];
            let a = self.angular(m, &mut scratch);
            let (lines, _) = if a.vertical { orig } else { orig_t }.as_chunks::<N>();
            for (j, o) in lines[..N].iter().enumerate() {
                let (w, frac) = a.line(j, N);
                for ((&o, &p), &q) in o.iter().zip(w).zip(&w[1..]) {
                    sad += (o - interp(frac, p, q)).unsigned_abs();
                }
            }
        } else {
            let mut pred = [[0i32; N]; N];
            let pred = pred.as_flattened_mut();
            self.predict_slice(mode, pred);
            for (&o, &p) in orig[..N * N].iter().zip(pred.iter()) {
                sad += (o - p).unsigned_abs();
            }
        }
        sad
    }

    fn predict_dc(&self, out: &mut [i32]) {
        let n = self.n;
        let sum: i32 = self.top()[..n].iter().sum::<i32>() + self.left()[..n].iter().sum::<i32>();
        // Blocks are at most 32×32, so the size always fits i32.
        let ni = i32::try_from(n).unwrap_or(i32::MAX);
        let dc = (sum + ni) / (2 * ni);
        out.fill(dc);
    }

    fn predict_planar(&self, out: &mut [i32]) {
        let n = self.n;
        let (top, left) = (self.top(), self.left());
        // Blocks are at most 32×32, so the size always fits i32.
        let ni = i32::try_from(n).unwrap_or(i32::MAX);
        let shift = n.trailing_zeros() + 1;
        debug_assert!(shift <= 6, "blocks are at most 32x32");
        let tr = top[n]; // first top-right sample
        let bl = left[n]; // first bottom-left sample
        for y in 0..n {
            let yi = i32::try_from(y).unwrap_or(i32::MAX);
            for x in 0..n {
                let xi = i32::try_from(x).unwrap_or(i32::MAX);
                let h = (ni - 1 - xi) * left[y] + (xi + 1) * tr;
                let v = (ni - 1 - yi) * top[x] + (yi + 1) * bl;
                out[y * n + x] = (h + v + ni) >> shift;
            }
        }
    }

    /// The reference row of angular mode `mode`. Non-negative angles read
    /// the stored row as is; negative angles extend a copy of it in
    /// `scratch` below the corner with side samples projected onto the
    /// main direction.
    fn angular<'a>(&'a self, mode: u8, scratch: &'a mut [i32; ROW_LEN]) -> Angular<'a> {
        assert!((2..=34).contains(&mode), "angular mode {mode} out of range");
        let n = self.n;
        debug_assert!((4..=MAX_N).contains(&n), "blocks are 4x4 to 32x32");
        let angle = ANGLES[mode as usize - 2];
        // The HEVC angle table spans ±32; the projection arithmetic below
        // relies on that to stay inside i32.
        debug_assert!((-32..=32).contains(&angle), "angle table out of range");
        let vertical = mode >= 18;

        // Main reference runs along the prediction direction's source edge;
        // the side reference extends it for negative angles.
        let (main, side) = if vertical {
            (&self.above, self.left())
        } else {
            (&self.beside, self.top())
        };
        if angle >= 0 {
            return Angular {
                row: main,
                angle,
                vertical,
            };
        }
        // A negative angle reads `ref[x]` for `x` in `lowest..=n` only.
        scratch[REF0..=REF0 + n].copy_from_slice(&main[REF0..=REF0 + n]);
        let inv = inv_angle(angle);
        // Blocks are at most 32×32, so the conversion is exact and the
        // projected indices below stay within i32.
        let off = i32::try_from(n).unwrap_or(32);
        let lowest = (off * angle) >> 5; // most negative index used
        for x in (lowest..0).rev() {
            // Project onto the side reference.
            let idx = ((x * inv + 128) >> 8) - 1; // index into side[], -1 = corner
            let s = if idx < 0 {
                main[REF0]
            } else {
                side[usize::try_from(idx).unwrap_or(0).min(2 * n - 1)]
            };
            // `lowest >= -n`, so the index stays inside the row.
            // lint:allow(cast): `REF0` is the constant 32.
            scratch[usize::try_from(REF0 as i32 + x).unwrap_or(0)] = s;
        }
        Angular {
            row: scratch,
            angle,
            vertical,
        }
    }

    fn predict_angular(&self, mode: u8, out: &mut [i32]) {
        let mut scratch = [0i32; ROW_LEN];
        let a = self.angular(mode, &mut scratch);
        let n = self.n;
        for j in 0..n {
            // j indexes rows for vertical modes, columns for horizontal.
            let (w, frac) = a.line(j, n);
            for (i, (&p, &q)) in w.iter().zip(&w[1..]).enumerate() {
                let v = interp(frac, p, q);
                if a.vertical {
                    out[j * n + i] = v;
                } else {
                    out[i * n + j] = v;
                }
            }
        }
    }

    fn predict_paeth(&self, out: &mut [i32]) {
        let n = self.n;
        let (top, left, c) = (self.top(), self.left(), self.corner());
        for y in 0..n {
            for x in 0..n {
                let t = top[x];
                let l = left[y];
                let base = t + l - c;
                let (dt, dl, dc) = ((base - t).abs(), (base - l).abs(), (base - c).abs());
                out[y * n + x] = if dt <= dl && dt <= dc {
                    t
                } else if dl <= dc {
                    l
                } else {
                    c
                };
            }
        }
    }

    /// Linear-weight smooth predictor ("AV1-like"; AV1 proper uses a
    /// quadratic weight table — the behaviour is equivalent for our
    /// purposes and documented in DESIGN.md).
    fn predict_smooth(&self, use_v: bool, use_h: bool, out: &mut [i32]) {
        let n = self.n;
        let (top, left) = (self.top(), self.left());
        let bl = left[n]; // bottom-left anchor
        let tr = top[n]; // top-right anchor
                         // Blocks are at most 32×32, so the size always fits i32.
        let ni = i32::try_from(n.max(1)).unwrap_or(i32::MAX);
        let w = |i: usize| -> i32 {
            // 256 at i = 0 decaying linearly to 64 at i = n-1.
            (256 - (192 * i32::try_from(i).unwrap_or(i32::MAX)) / ni).max(64)
        };
        for y in 0..n {
            for x in 0..n {
                let mut acc = 0i32;
                let mut den = 0i32;
                if use_v {
                    acc += w(y) * top[x] + (256 - w(y)) * bl;
                    den += 256;
                }
                if use_h {
                    acc += w(x) * left[y] + (256 - w(x)) * tr;
                    den += 256;
                }
                out[y * n + x] = (acc + den / 2) / den;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_frame(v: u8) -> Frame {
        Frame::from_fn(32, 32, |_, _| v)
    }

    fn all_modes() -> Vec<PredMode> {
        PredMode::av1_set()
    }

    #[test]
    fn fused_sad_matches_predict_then_sad_for_every_mode_size_and_edge() {
        use llm265_tensor::rng::Pcg32;
        let mut rng = Pcg32::seed_from(23);
        let side = 96;
        let f = Frame::from_fn(side, side, |x, y| {
            (((x * 37 + y * 11) % 200) as u32 + rng.below(56)) as u8
        });
        let sets = [
            PredMode::h264_set(),
            PredMode::h265_set(),
            PredMode::av1_set(),
        ];
        for n in [4usize, 8, 16, 32] {
            let far = side - n;
            // Frame corner, top and left edges (substituted references),
            // interior, and the right/bottom edges (replicated ones).
            for (x0, y0) in [
                (0, 0),
                (n, 0),
                (0, n),
                (n, n),
                (far, 0),
                (0, far),
                (far, far),
            ] {
                let refs = RefSamples::gather(&f, x0, y0, n);
                let orig: Vec<i32> = (0..n * n).map(|_| rng.below(256) as i32).collect();
                let mut orig_t = vec![0; n * n];
                for y in 0..n {
                    for x in 0..n {
                        orig_t[x * n + y] = orig[y * n + x];
                    }
                }
                for set in &sets {
                    for &mode in set {
                        let pred = refs.predict(mode);
                        let want: u64 = orig
                            .iter()
                            .zip(&pred)
                            .map(|(&o, &p)| u64::from((o - p).unsigned_abs()))
                            .sum();
                        assert_eq!(
                            refs.sad(mode, &orig, &orig_t),
                            want,
                            "{mode:?} n={n} at ({x0},{y0})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mode_sets_sizes() {
        assert_eq!(PredMode::h265_set().len(), 35);
        assert_eq!(PredMode::h264_set().len(), 9);
        assert_eq!(PredMode::av1_set().len(), 39);
    }

    #[test]
    fn flat_references_predict_flat_block() {
        let f = flat_frame(77);
        let refs = RefSamples::gather(&f, 8, 8, 8);
        for mode in all_modes() {
            let pred = refs.predict(mode);
            assert!(
                pred.iter().all(|&p| (p - 77).abs() <= 1),
                "mode {mode:?} broke flatness: {:?}",
                &pred[..4]
            );
        }
    }

    #[test]
    fn predictions_stay_in_pixel_range() {
        // Extreme checkerboard references must not overflow 0..=255.
        let f = Frame::from_fn(32, 32, |x, y| if (x + y) % 2 == 0 { 0 } else { 255 });
        let refs = RefSamples::gather(&f, 16, 16, 8);
        for mode in all_modes() {
            let pred = refs.predict(mode);
            assert!(
                pred.iter().all(|&p| (0..=255).contains(&p)),
                "mode {mode:?} out of range"
            );
        }
    }

    #[test]
    fn extreme_block_sizes_stay_in_range_for_every_mode() {
        // n = 4 and n = 32 are the size invariant's two boundaries: the
        // planar shift hits its 6-bit cap, and the steepest negative
        // angle (±32) projects the longest side-reference run through
        // `x * inv_angle` at maximum magnitude. Extreme samples make any
        // wrap visible as an out-of-range prediction.
        let f = Frame::from_fn(64, 64, |x, y| if (x / 3 + y) % 2 == 0 { 0 } else { 255 });
        for n in [4usize, 32] {
            let refs = RefSamples::gather(&f, 32, 32, n);
            for mode in PredMode::h265_set() {
                let pred = refs.predict(mode);
                assert!(
                    pred.iter().all(|&p| (0..=255).contains(&p)),
                    "mode {mode:?} at n={n} out of range"
                );
            }
        }
    }

    #[test]
    fn vertical_mode_copies_top_row() {
        let f = Frame::from_fn(32, 32, |x, _| (x * 7 % 256) as u8);
        let refs = RefSamples::gather(&f, 8, 8, 4);
        let pred = refs.predict(PredMode::Angular(26)); // pure vertical
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(pred[y * 4 + x], f.get(8 + x, 7) as i32);
            }
        }
    }

    #[test]
    fn horizontal_mode_copies_left_column() {
        let f = Frame::from_fn(32, 32, |_, y| (y * 11 % 256) as u8);
        let refs = RefSamples::gather(&f, 8, 8, 4);
        let pred = refs.predict(PredMode::Angular(10)); // pure horizontal
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(pred[y * 4 + x], f.get(7, 8 + y) as i32);
            }
        }
    }

    #[test]
    fn dc_is_mean_of_edges() {
        let mut f = flat_frame(0);
        // Top edge = 100, left edge = 50.
        for i in 0..8 {
            f.set(8 + i, 7, 100);
            f.set(7, 8 + i, 50);
        }
        let refs = RefSamples::gather(&f, 8, 8, 8);
        let pred = refs.predict(PredMode::Dc);
        assert_eq!(pred[0], 75);
    }

    #[test]
    fn planar_interpolates_gradient() {
        // A gentle linear ramp should be predicted closely by planar. (The
        // HEVC planar anchors at the first top-right / bottom-left
        // reference samples, so steep gradients accrue corner error by
        // design — hence a mild slope here.)
        let f = Frame::from_fn(32, 32, |x, y| (x * 2 + y) as u8);
        let refs = RefSamples::gather(&f, 8, 8, 8);
        let pred = refs.predict(PredMode::Planar);
        let mut max_err = 0;
        for y in 0..8 {
            for x in 0..8 {
                let actual = f.get(8 + x, 8 + y) as i32;
                max_err = max_err.max((pred[y * 8 + x] - actual).abs());
            }
        }
        assert!(max_err <= 11, "planar max err {max_err}");
    }

    #[test]
    fn frame_corner_block_predicts_mid_gray() {
        let f = Frame::from_fn(32, 32, |x, y| ((x * y) % 256) as u8);
        let refs = RefSamples::gather(&f, 0, 0, 8);
        let pred = refs.predict(PredMode::Dc);
        assert!(pred.iter().all(|&p| p == 128));
    }

    #[test]
    fn top_edge_block_substitutes_left() {
        let f = Frame::from_fn(32, 32, |_, y| (y * 8).min(255) as u8);
        // y0 = 0: no top refs; they substitute from the left column.
        let refs = RefSamples::gather(&f, 8, 0, 4);
        let pred = refs.predict(PredMode::Angular(26));
        // Substituted top refs equal left[0] = pixel (7, 0) = 0.
        assert!(pred.iter().all(|&p| p == f.get(7, 0) as i32));
    }

    #[test]
    fn diagonal_mode_tracks_diagonal_edge() {
        // Mode 34 predicts down-left at 45°: pred[x][y] = top[x+y+1].
        let f = Frame::from_fn(32, 32, |x, _| (x * 9 % 256) as u8);
        let refs = RefSamples::gather(&f, 8, 8, 4);
        let pred = refs.predict(PredMode::Angular(34));
        for y in 0..4usize {
            for x in 0..4usize {
                let expect = f.get(8 + x + y + 1, 7) as i32;
                assert_eq!(pred[y * 4 + x], expect, "at ({x},{y})");
            }
        }
    }

    #[test]
    fn negative_angle_modes_use_both_edges() {
        // Mode 18 is the -32 diagonal (down-right): needs left refs too.
        let f = Frame::from_fn(32, 32, |x, y| ((x * 3 + y * 5) % 256) as u8);
        let refs = RefSamples::gather(&f, 8, 8, 8);
        let pred = refs.predict(PredMode::Angular(18));
        // pred[0][0] should equal the corner-adjacent diagonal source.
        assert_eq!(pred[0], refs.corner());
        assert!(pred.iter().all(|&p| (0..=255).contains(&p)));
    }

    #[test]
    fn all_angular_modes_produce_valid_output_at_all_sizes() {
        let f = Frame::from_fn(64, 64, |x, y| ((x * 13 + y * 7) % 256) as u8);
        for &n in &[4usize, 8, 16, 32] {
            let refs = RefSamples::gather(&f, 32, 16, n);
            for m in 2..=34u8 {
                let pred = refs.predict(PredMode::Angular(m));
                assert_eq!(pred.len(), n * n);
                assert!(
                    pred.iter().all(|&p| (0..=255).contains(&p)),
                    "mode {m} size {n}"
                );
            }
        }
    }

    #[test]
    fn channel_structure_is_captured_by_directional_modes() {
        // Column-banded "weights" (channel-wise scales): vertical mode
        // should predict far better than DC — the paper's Fig 4 story.
        let f = Frame::from_fn(64, 64, |x, _| (((x / 4) * 31) % 200 + 20) as u8);
        let refs = RefSamples::gather(&f, 16, 16, 16);
        let sad = |pred: &[i32]| -> i64 {
            let mut s = 0i64;
            for y in 0..16 {
                for x in 0..16 {
                    s += (pred[y * 16 + x] - f.get(16 + x, 16 + y) as i32).abs() as i64;
                }
            }
            s
        };
        let vert = sad(&refs.predict(PredMode::Angular(26)));
        let dc = sad(&refs.predict(PredMode::Dc));
        assert!(vert * 4 < dc, "vertical {vert} vs dc {dc}");
        assert_eq!(vert, 0, "pure column structure predicts exactly");
    }
}
