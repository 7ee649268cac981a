//! `weights_rate`: offline checkpoint compression under a rate target.
//!
//! Each op cold-encodes one synthetic LLM weight on one thread. Shapes go
//! through one transformer block's weights in order ([`gen::block_shapes`]):
//! four square attention matrices (one chunk each) and three MLP matrices
//! above the codec's chunk limit (several chunks each). Targets cycle over
//! three bits/value budgets and one error budget. Each result is decoded
//! once, untimed, to check it.
//!
//! The chunk limit is scaled down with the tensors ([`MAX_CHUNK_PIXELS`]):
//! real weight matrices are far above the default limit, so most of their
//! encodes are multi-chunk, and small multi-chunk tensors keep each encode
//! short enough to run many in a run.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use llm265_core::{Llm265Codec, RateTarget, TensorCodec, TensorStreamIndex};
use llm265_tensor::Tensor;

use crate::check::{self, Failure};
use crate::trace::Tracer;
use crate::workload::{count, counted_codec, ops, timed, Pass, Probes, Window, Workload};
use crate::{gen, kernels};

/// Chunk limit of this workload's codec, an eighth of the default.
pub const MAX_CHUNK_PIXELS: usize = 8192;
pub const TARGETS: [RateTarget; 4] = [
    RateTarget::BitsPerValue(2.5),
    RateTarget::BitsPerValue(3.0),
    RateTarget::BitsPerValue(3.5),
    RateTarget::MaxNormalizedMse(0.02),
];
/// Block width and MLP width: half the archive's, in the same ratio.
pub const D: usize = crate::archive::D / 2;
pub const FFN: usize = crate::archive::FFN / 2;
/// Op ids of the set-up encodes, apart from the timed ones.
const WARM_OPS: u64 = 1 << 32;
/// Ops whose chunk encodes are counted: every target on every shape of
/// the block.
const WINDOW: usize = 28;
/// QP of the kernel probes: the encoder exposes none under a rate target,
/// so they use the archive's fixed QP.
const KERNEL_QP: f64 = crate::archive::QP;

/// Shape and target of op `k`.
pub fn op(k: u64) -> ((usize, usize), RateTarget) {
    let shapes = gen::block_shapes(D, FFN);
    let (_, rows, cols) = shapes[(k % shapes.len() as u64) as usize];
    ((rows, cols), TARGETS[(k % TARGETS.len() as u64) as usize])
}

pub struct Weights {
    seed: u64,
    codec: Llm265Codec,
    counter: Arc<AtomicU64>,
}

/// Builds the 1-thread codec and warms its lazy set-up with an encode and
/// decode of each shape of the block at the archive's fixed QP. The work
/// barely depends on the inputs, so set-up time measures the codec, not
/// how many probes a rate search took.
pub fn setup(seed: u64) -> Weights {
    let (codec, counter) = counted_codec(1, MAX_CHUNK_PIXELS);
    let shapes = [(D, D), (FFN, D), (D, FFN)];
    for (k, (rows, cols)) in (WARM_OPS..).zip(shapes) {
        let warm = gen::weight(seed, k, rows, cols);
        let enc = codec
            .encode(&warm, RateTarget::Qp(KERNEL_QP))
            .expect("warm-up encode");
        codec.decode(&enc).expect("warm-up decode");
    }
    Weights {
        seed,
        codec,
        counter,
    }
}

/// Encodes op `k`'s tensor (timed), then decodes and checks it. Returns
/// the number of chunks in the stream.
fn encode_op(
    codec: &Llm265Codec,
    t: &Tensor,
    target: RateTarget,
    k: usize,
    tr: &mut Tracer,
    pass: &mut Pass,
) -> Result<usize, Failure> {
    let s = tr.enter("core.encode", k as u64);
    let (enc, dt) = timed(|| check::guarded(|| codec.encode(t, target)));
    tr.exit(s);
    pass.time(dt, (t.len() * 4) as f64, true);
    let enc = enc?;
    let out = tr.span("core.decode", k as u64, || {
        check::guarded(|| codec.decode(&enc))
    })?;
    check::shape(out.shape(), t.shape())?;
    let chunks = check::guarded(|| TensorStreamIndex::parse(enc.bytes()))?.n_chunks();
    let nmse = check::nmse(t, &out);
    pass.quality.add(enc.bits() as f64, t.len() as f64, nmse);
    check::rate(target, enc.bits(), t.len(), nmse)?;
    Ok(chunks)
}

impl Workload for Weights {
    fn pass(&self, seconds: f64, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let base = count(&self.counter);
        let mut window_chunks = 0;
        ops(seconds, WINDOW, |k| {
            let (shape, target) = op(k as u64);
            let t = gen::weight(self.seed, k as u64, shape.0, shape.1);
            let r = encode_op(&self.codec, &t, target, k, tr, &mut pass);
            if k < WINDOW {
                window_chunks += r.as_ref().map_or(0, |&c| c as u64);
                if k + 1 == WINDOW {
                    pass.window = Some(Window {
                        chunk_encodes: count(&self.counter) - base,
                        chunks: window_chunks,
                    });
                }
            }
            pass.tally.record(r.map(drop));
        });
        pass
    }

    fn probes(&self, _pass: &Pass) -> Probes {
        let t = gen::weight(self.seed, 0, D, D);
        Probes {
            // One thread: the pool is bypassed.
            pool_speedup: 0.0,
            tile_cost_ratio: None,
            kernels: kernels::measure(&kernels::frame_from(&t), KERNEL_QP),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_cycle_follows_the_block_and_meets_every_target_on_every_shape() {
        let ops: Vec<_> = (0..WINDOW as u64).map(op).collect();
        let square = |s: &(usize, usize)| *s == (D, D);
        assert_eq!(ops.iter().filter(|(s, _)| square(s)).count(), 16);
        for t in TARGETS {
            for shape in [(D, D), (FFN, D), (D, FFN)] {
                assert!(ops.iter().any(|&(s, g)| s == shape && g == t));
            }
        }
    }

    #[test]
    fn mlp_encodes_are_multi_chunk() {
        let w = setup(3);
        let mut pass = Pass::default();
        let mut tr = Tracer::new(false);
        let mut chunks = |rows, cols| {
            let t = gen::weight(3, 0, rows, cols);
            let target = RateTarget::BitsPerValue(3.0);
            encode_op(&w.codec, &t, target, 0, &mut tr, &mut pass).expect("clean encode")
        };
        assert_eq!(chunks(D, D), 1);
        assert!(chunks(FFN, D) > 1);
        assert!(chunks(D, FFN) > 1);
    }
}
