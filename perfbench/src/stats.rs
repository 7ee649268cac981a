//! Summary statistics for the benchmark's samples and spans.

use std::time::Duration;

/// Percentiles the tail report may pick from, highest first, in tenths
/// of a percent.
const TAIL_LADDER: [u32; 5] = [999, 990, 950, 900, 750];
/// A tail percentile is only reported with at least this many samples
/// above it.
pub const MIN_BEYOND: usize = 10;

/// Percentile `p` (0–100) of `xs` by linear interpolation between the
/// closest ranks. `None` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// The highest percentile with at least [`MIN_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `90.0`.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it; `None` when even the lowest rung
/// does not.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let tenths = TAIL_LADDER
        .into_iter()
        .find(|&t| beyond(n, t) >= MIN_BEYOND)?;
    let pct = f64::from(tenths) / 10.0;
    Some(Tail {
        pct,
        value: percentile(xs, pct)?,
        samples: n,
    })
}

/// Samples above percentile `tenths / 10` of `n` samples.
pub fn beyond(n: usize, tenths: u32) -> usize {
    n * (1000 - tenths.min(1000) as usize) / 1000
}

/// Megabytes of work per second of summed op time: the closed-loop
/// throughput, which ignores the benchmark's own time between ops.
pub fn throughput_mb_s(bytes: f64, op_times: &[Duration]) -> f64 {
    let busy: f64 = op_times.iter().map(Duration::as_secs_f64).sum();
    if busy > 0.0 {
        bytes / 1e6 / busy
    } else {
        0.0
    }
}

/// Length of the part of `[start, end)` covered by the union of `children`
/// (each clipped to the interval). Children may overlap, as spans from
/// concurrent workers do.
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered(start, end, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 95.0), Some(9.5));
        assert_eq!(percentile(&xs, 0.0), Some(0.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&xs(39)), None);
        assert_eq!(tail(&xs(40)).map(|t| t.pct), Some(75.0));
        assert_eq!(tail(&xs(99)).map(|t| t.pct), Some(75.0));
        assert_eq!(tail(&xs(100)).map(|t| t.pct), Some(90.0));
        assert_eq!(tail(&xs(200)).map(|t| t.pct), Some(95.0));
        let t = tail(&xs(1000)).expect("enough samples");
        assert_eq!((t.pct, t.samples), (99.0, 1000));
        assert!((t.value - 989.01).abs() < 1e-9);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0, 100); children overlap each other and the parent's end.
        let kids = [(10, 30), (20, 40), (90, 120), (50, 50)];
        assert_eq!(covered(0, 100, &kids), 30 + 10);
        assert_eq!(self_time(0, 100, &kids), 60);
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(0, 100), (10, 20)]), 0);
        // A child entirely outside the parent covers nothing.
        assert_eq!(self_time(0, 100, &[(200, 300)]), 100);
    }

    #[test]
    fn throughput_divides_by_summed_op_time() {
        let ops = [Duration::from_millis(250), Duration::from_millis(750)];
        assert!((throughput_mb_s(4e6, &ops) - 4.0).abs() < 1e-12);
        assert_eq!(throughput_mb_s(1.0, &[]), 0.0);
    }
}
