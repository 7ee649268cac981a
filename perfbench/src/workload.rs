//! What the three workloads share: a timed pass and its results.
//!
//! Each workload has a seed-determined sequence of ops. A pass goes
//! through it, closed loop, until its time is up. Every run of every op is
//! a sample: the percentiles and the throughput are taken over all of
//! them, so stalls that hit only some runs show in the tail.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use llm265_core::{Llm265Codec, Llm265Config};

use crate::check::Tally;
use crate::kernels::KernelCosts;
use crate::trace::Tracer;

/// One timed run of one op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub dt: Duration,
    /// f32 bytes the op consumed or produced.
    pub bytes: f64,
    /// Whether the op is a sample of the workload's headline latency.
    pub latency: bool,
}

/// Size and error of encoded results.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    /// Compressed bits and tensor values behind them.
    pub bits: f64,
    pub values: f64,
    /// Normalized MSE of each result.
    pub nmse: Vec<f64>,
}

impl Quality {
    /// Adds one result of `values` values in `bits` bits.
    pub fn add(&mut self, bits: f64, values: f64, nmse: f64) {
        self.bits += bits;
        self.values += values;
        self.nmse.push(nmse);
    }

    pub fn merge(&mut self, other: &Quality) {
        self.bits += other.bits;
        self.values += other.values;
        self.nmse.extend_from_slice(&other.nmse);
    }

    pub fn bits_per_value(&self) -> f64 {
        self.bits / self.values.max(1.0)
    }

    /// Mean normalized MSE over the results.
    pub fn nmse(&self) -> f64 {
        self.nmse.iter().sum::<f64>() / self.nmse.len().max(1) as f64
    }
}

/// What one timed pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Every execution of every op, checked.
    pub tally: Tally,
    /// Every timed run, in order.
    pub samples: Vec<Sample>,
    /// The results of the pass's encodes.
    pub quality: Quality,
    /// Chunk encodes and chunks over the pass's fixed counting window.
    pub window: Option<Window>,
}

impl Pass {
    /// Records one timed run.
    pub fn time(&mut self, dt: Duration, bytes: f64, latency: bool) {
        self.samples.push(Sample { dt, bytes, latency });
    }

    /// Times of the latency runs, in ms.
    pub fn op_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.latency)
            .map(|s| s.dt.as_secs_f64() * 1e3)
            .collect()
    }

    /// Megabytes per second over the summed time of every run.
    pub fn mb_per_s(&self) -> f64 {
        let bytes: f64 = self.samples.iter().map(|s| s.bytes).sum();
        let times: Vec<Duration> = self.samples.iter().map(|s| s.dt).collect();
        crate::stats::throughput_mb_s(bytes, &times)
    }
}

/// Chunk-level encode work over a fixed, seed-determined set of ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    pub chunk_encodes: u64,
    pub chunks: u64,
}

/// Layer measurements taken after the traced pass.
#[derive(Debug, Clone)]
pub struct Probes {
    /// 1-thread ÷ `nproc`-thread time of the same op.
    pub pool_speedup: f64,
    /// Tile read time ÷ (1-thread full decode time ÷ tiles).
    pub tile_cost_ratio: Option<f64>,
    pub kernels: KernelCosts,
}

/// A workload after set-up.
pub trait Workload {
    /// The results of the set-up's own measured encodes, if it makes any.
    fn setup_quality(&self) -> Quality {
        Quality::default()
    }
    /// Runs the op list for `seconds`, and at least its counting window.
    /// Every pass starts from the same state.
    fn pass(&self, seconds: f64, tr: &mut Tracer) -> Pass;
    /// Replays and kernel probes for the per-layer table; `pass` is the
    /// traced pass.
    fn probes(&self, pass: &Pass) -> Probes;
}

/// Calls `op(k)` for `k = 0, 1, ...` until `seconds` have passed and at
/// least `min_ops` calls were made. Returns the number of calls.
pub fn ops(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) -> usize {
    let t0 = Instant::now();
    let mut k = 0;
    while k < min_ops || t0.elapsed().as_secs_f64() < seconds {
        op(k);
        k += 1;
    }
    k
}

/// A codec at a thread count and chunk limit, with a chunk-encode
/// counter attached.
pub fn counted_codec(threads: usize, max_chunk_pixels: usize) -> (Llm265Codec, Arc<AtomicU64>) {
    let counter = Arc::new(AtomicU64::new(0));
    let mut codec = Llm265Codec::with_config(Llm265Config {
        threads,
        max_chunk_pixels,
        ..Llm265Config::default()
    });
    codec.set_chunk_encode_counter(Arc::clone(&counter));
    (codec, counter)
}

/// The codec's default chunk limit.
pub fn default_chunk_pixels() -> usize {
    Llm265Config::default().max_chunk_pixels
}

pub fn count(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// Times `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Replays one op at 1 thread and at `threads`, alternating, `reps` times
/// each. Returns the ratio of the median times, and whether every replay
/// produced the same output (the codec's output must not depend on the
/// thread count).
pub fn pool_speedup<T: PartialEq>(
    threads: usize,
    reps: usize,
    mut op: impl FnMut(usize) -> Option<T>,
) -> (f64, bool) {
    let mut first: Option<T> = None;
    let mut same = true;
    let (mut t1, mut tn) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        for (n, times) in [(1, &mut t1), (threads, &mut tn)] {
            let (out, dt) = timed(|| op(n));
            times.push(dt.as_secs_f64());
            match (&first, out) {
                (_, None) => same = false,
                (None, Some(o)) => first = Some(o),
                (Some(f), Some(o)) => same &= *f == o,
            }
        }
    }
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(f64::NAN);
    (med(&t1) / med(&tn), same)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_counts_every_run() {
        let mut p = Pass::default();
        let ms = Duration::from_millis;
        p.time(ms(30), 4e6, true);
        p.time(ms(10), 4e6, true);
        p.time(ms(20), 4e6, true);
        p.time(ms(40), 2e6, false);
        assert_eq!(p.op_ms(), vec![30.0, 10.0, 20.0]);
        // 14 MB over 100 ms.
        assert!((p.mb_per_s() - 140.0).abs() < 1e-9);
    }

    #[test]
    fn ops_run_the_floor_then_stop_on_time() {
        let mut seen = Vec::new();
        assert_eq!(ops(0.0, 4, |k| seen.push(k)), 4);
        assert_eq!(seen, vec![0, 1, 2, 3]);
        let n = ops(0.05, 0, |_| std::thread::sleep(Duration::from_millis(10)));
        assert!(n >= 5, "ops {n}");
    }
}
