//! Output checks and failed-op accounting.
//!
//! Every timed op ends in exactly one [`Tally::record`] call: either the
//! op passed every check, or it failed for one [`Failure`] reason. A
//! codec panic is caught and counted, so a bad op never ends the run.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

use llm265_core::{CodecError, RateTarget};
use llm265_tensor::{stats, Tensor};

/// Why an op failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// The codec returned `Err`.
    Codec,
    /// The codec panicked.
    Panic,
    /// A decoded tensor has the wrong shape.
    Shape,
    /// The result misses its rate target under the codec's contract.
    RateMiss,
    /// A tile read differs from the matching rows of the reference decode.
    TileMismatch,
    /// A full decode differs from the reference decode.
    DecodeMismatch,
}

impl Failure {
    pub fn name(self) -> &'static str {
        match self {
            Failure::Codec => "codec_err",
            Failure::Panic => "panic",
            Failure::Shape => "shape",
            Failure::RateMiss => "rate_miss",
            Failure::TileMismatch => "tile_mismatch",
            Failure::DecodeMismatch => "decode_mismatch",
        }
    }
}

/// Attempted and failed op counts, by failure reason.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: BTreeMap<Failure, u64>,
}

impl Tally {
    pub fn record(&mut self, r: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(f) = r {
            *self.failed.entry(f).or_default() += 1;
        }
    }

    pub fn failed(&self) -> u64 {
        self.failed.values().sum()
    }

    /// Failed ÷ attempted ops.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        for (&f, &n) in &other.failed {
            *self.failed.entry(f).or_default() += n;
        }
    }
}

/// Calls into the codec, turning `Err` and panics into a [`Failure`].
pub fn guarded<T>(f: impl FnOnce() -> Result<T, CodecError>) -> Result<T, Failure> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(_)) => Err(Failure::Codec),
        Err(_) => Err(Failure::Panic),
    }
}

pub fn shape(got: (usize, usize), want: (usize, usize)) -> Result<(), Failure> {
    if got == want {
        Ok(())
    } else {
        Err(Failure::Shape)
    }
}

/// MSE ÷ variance of `recon` against `orig`.
pub fn nmse(orig: &Tensor, recon: &Tensor) -> f64 {
    stats::tensor_mse(orig, recon) / stats::variance(orig.data()).max(1e-30)
}

/// Relative slack on the error target: the codec checks it on summed
/// squared errors, which agree with [`nmse`] up to summation order.
const NMSE_SLACK: f64 = 1e-6;

/// The codec's rate contract for budgets it can meet: a bits/value target
/// caps the stream size, an error target caps the normalized MSE.
pub fn rate(target: RateTarget, bits: u64, values: usize, nmse: f64) -> Result<(), Failure> {
    let ok = match target {
        RateTarget::BitsPerValue(b) => bits as f64 <= b * values as f64,
        RateTarget::MaxNormalizedMse(m) => nmse <= m * (1.0 + NMSE_SLACK),
        RateTarget::Qp(_) => true,
    };
    if ok {
        Ok(())
    } else {
        Err(Failure::RateMiss)
    }
}

/// Bit-exact equality of `band` with rows `row0..` of `reference`.
pub fn rows_match(band: &Tensor, reference: &Tensor, row0: usize) -> bool {
    band.cols() == reference.cols()
        && row0 + band.rows() <= reference.rows()
        && (0..band.rows()).all(|r| bits_eq(band.row(r), reference.row(row0 + r)))
}

/// Bit-exact equality of two tensors, shape included.
pub fn same(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape() && bits_eq(a.data(), b.data())
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_each_failure_kind() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err(Failure::RateMiss));
        t.record(Err(Failure::RateMiss));
        t.record(Err(Failure::Panic));
        assert_eq!((t.attempted, t.failed()), (4, 3));
        assert_eq!(t.failed[&Failure::RateMiss], 2);
        assert!((t.failed_frac() - 0.75).abs() < 1e-12);
        let mut u = Tally::default();
        u.merge(&t);
        u.record(Ok(()));
        assert_eq!((u.attempted, u.failed()), (5, 3));
    }

    #[test]
    fn guarded_catches_errors_and_panics() {
        assert_eq!(guarded(|| Ok(3)), Ok(3));
        let err: Result<(), Failure> = guarded(|| Err(CodecError::Corrupt("x")));
        assert_eq!(err, Err(Failure::Codec));
        let hook = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let boom: Result<(), Failure> = guarded(|| panic!("boom"));
        panic::set_hook(hook);
        assert_eq!(boom, Err(Failure::Panic));
    }

    #[test]
    fn rate_contract_per_target_kind() {
        assert_eq!(rate(RateTarget::BitsPerValue(3.0), 300, 100, 1.0), Ok(()));
        assert_eq!(
            rate(RateTarget::BitsPerValue(3.0), 301, 100, 0.0),
            Err(Failure::RateMiss)
        );
        assert_eq!(
            rate(RateTarget::MaxNormalizedMse(0.02), 9999, 1, 0.02),
            Ok(())
        );
        assert_eq!(
            rate(RateTarget::MaxNormalizedMse(0.02), 1, 1, 0.021),
            Err(Failure::RateMiss)
        );
    }

    #[test]
    fn row_and_tensor_comparisons_are_bit_exact() {
        let full = Tensor::from_fn(6, 3, |r, c| (r * 3 + c) as f32);
        let band = Tensor::from_fn(2, 3, |r, c| ((r + 2) * 3 + c) as f32);
        assert!(rows_match(&band, &full, 2));
        // The same band checked against the wrong rows must not pass.
        assert!(!rows_match(&band, &full, 3));
        assert!(!rows_match(&band, &full, 5));
        assert!(same(&full, &full.clone()));
        let mut off = full.clone();
        off.data_mut()[7] = f32::from_bits(off.data()[7].to_bits() + 1);
        assert!(!same(&full, &off));
        assert!(!same(&band, &full));
    }
}
