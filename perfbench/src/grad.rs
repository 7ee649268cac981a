//! `grad_stream`: data-parallel gradient sync, where step latency matters.
//!
//! One layer's gradients go through a rate-tracking channel step after
//! step at a fixed bits/value target, as in the data-parallel training
//! figure. The channel warm-starts each rate search from the previous
//! step's bracket, and the single chunk's tiles fan out over the pool.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use llm265_core::{Llm265TrackingChannel, RateTarget};
use llm265_tensor::channel::LossyCompressor;
use llm265_tensor::Tensor;

use crate::check::{self, Failure};
use crate::gen::GradStream;
use crate::kernels;
use crate::trace::Tracer;
use crate::workload::{
    count, counted_codec, default_chunk_pixels, ops, pool_speedup, timed, Pass, Probes, Window,
    Workload,
};

/// One chunk of eight 32-row tiles.
pub const SHAPE: (usize, usize) = (256, 64);
pub const BITS: f64 = 2.6;
/// Steps over which training progress goes from 0 to 1.
const HORIZON: u64 = 4000;
/// Steps that establish the channel's warm bracket during one set-up.
const WARM_STEPS: u64 = 3;
/// Steps whose chunk encodes are counted.
const WINDOW: usize = 32;
/// Steps replayed at each thread count for the pool speedup.
const REPLAY_STEPS: u64 = 2;

pub struct Grad {
    threads: usize,
    stream: GradStream,
    channel: Llm265TrackingChannel,
    counter: Arc<AtomicU64>,
}

/// A channel at `threads`, warmed on the first [`WARM_STEPS`] steps.
fn warmed(stream: &GradStream, threads: usize) -> (Llm265TrackingChannel, Arc<AtomicU64>) {
    let (codec, counter) = counted_codec(threads, default_chunk_pixels());
    let mut channel = Llm265TrackingChannel::with_codec(codec, BITS);
    for s in 0..WARM_STEPS {
        channel.transcode(&stream.step(s));
    }
    (channel, counter)
}

/// Warms the channel on the first steps; timing starts after them. Every
/// set-up of a run does the same work.
pub fn setup(seed: u64, threads: usize) -> Grad {
    let stream = GradStream::new(seed, SHAPE.0, SHAPE.1, HORIZON);
    let (channel, counter) = warmed(&stream, threads);
    Grad {
        threads,
        stream,
        channel,
        counter,
    }
}

/// Transcodes step `k` (timed) and checks the result.
fn step_op(
    channel: &mut Llm265TrackingChannel,
    g: &Tensor,
    k: usize,
    tr: &mut Tracer,
    pass: &mut Pass,
) -> Result<(), Failure> {
    let s = tr.enter("core.encode", k as u64);
    let (out, dt) = timed(|| check::guarded(|| Ok(channel.transcode(g))));
    tr.exit(s);
    pass.time(dt, (g.len() * 4) as f64, true);
    let (out, bits) = out?;
    check::shape(out.shape(), g.shape())?;
    let nmse = check::nmse(g, &out);
    pass.quality.add(bits as f64, g.len() as f64, nmse);
    check::rate(RateTarget::BitsPerValue(BITS), bits, g.len(), nmse)
}

impl Grad {
    pub fn current_qp(&self) -> f64 {
        self.channel.current_qp()
    }
}

impl Workload for Grad {
    fn pass(&self, seconds: f64, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut channel = self.channel.clone();
        let base = count(&self.counter);
        ops(seconds, WINDOW, |k| {
            let g = self.stream.step(WARM_STEPS + k as u64);
            let r = step_op(&mut channel, &g, k, tr, &mut pass);
            pass.tally.record(r);
            if k + 1 == WINDOW {
                pass.window = Some(Window {
                    chunk_encodes: count(&self.counter) - base,
                    chunks: WINDOW as u64,
                });
            }
        });
        pass
    }

    fn probes(&self, _pass: &Pass) -> Probes {
        let steps: Vec<Tensor> = (0..REPLAY_STEPS)
            .map(|k| self.stream.step(WARM_STEPS + k))
            .collect();
        let one = warmed(&self.stream, 1).0;
        let many = warmed(&self.stream, self.threads).0;
        let (pool_speedup, same) = pool_speedup(self.threads, 3, |threads| {
            let mut channel = if threads == 1 {
                one.clone()
            } else {
                many.clone()
            };
            let mut out = Vec::new();
            for g in &steps {
                let (t, bits) = channel.transcode(g);
                out.push(bits);
                out.extend(t.data().iter().map(|v| u64::from(v.to_bits())));
            }
            Some(out)
        });
        let mut kernels = kernels::measure(&kernels::frame_from(&steps[0]), self.current_qp());
        kernels.exact &= same;
        Probes {
            pool_speedup,
            tile_cost_ratio: None,
            kernels,
        }
    }
}
