//! `archive_read`: loading and serving a compressed checkpoint.
//!
//! Set-up encodes several transformer blocks' weights into a `TensorArchive`
//! at one fixed QP and decodes a reference copy. Timed ops are a seeded
//! mix of random single-tile reads and, at a fixed share, whole-tensor
//! decodes; each is compared bit for bit with the reference. No encode
//! runs in the timed loop.

use llm265_core::{
    ArchiveIndex, EncodedTensor, Llm265Codec, RateTarget, TensorArchive, TensorCodec,
};
use llm265_tensor::Tensor;

use crate::check::{self, Failure};
use crate::trace::Tracer;
use crate::workload::{
    count, counted_codec, default_chunk_pixels, ops, pool_speedup, timed, Pass, Probes, Quality,
    Window, Workload,
};
use crate::{gen, kernels, stats};

/// The archive's QP, picked once so it lands near 3 bits/value.
pub const QP: f64 = 18.0;
/// Transformer blocks in the archive, their width and MLP width (about
/// 8/3 of the width, as in gated MLPs).
pub const BLOCKS: usize = 3;
pub const D: usize = 128;
pub const FFN: usize = 344;
/// Share of ops that decode a whole tensor instead of one tile. This is an
/// assumption, not a measured serving mix: most reads fetch a slice of a
/// tensor, and a few load one whole.
pub const FULL_SHARE: f64 = 0.05;
/// Reads a pass makes at least, whatever its time.
const MIN_READS: usize = 1000;
/// Full-decode replays at each thread count for the pool speedup.
const REPLAYS: usize = 9;

/// One tile of one archived tensor.
#[derive(Debug, Clone, Copy)]
struct Tile {
    entry: usize,
    chunk: usize,
    tile: usize,
    row0: usize,
    rows: usize,
}

pub struct Archive {
    seed: u64,
    threads: usize,
    codec: Llm265Codec,
    bytes: Vec<u8>,
    index: ArchiveIndex,
    /// The archived tensors and their reference decodes.
    originals: Vec<Tensor>,
    reference: Vec<Tensor>,
    tiles: Vec<Tile>,
    /// Bits and values of the whole archive, NMSE of each tensor.
    quality: Quality,
    /// Chunk encodes and chunks of the set-up encode.
    window: Window,
}

/// Encodes the archive, parses its index and decodes the reference.
/// Set-up `rep` archives blocks of its own, so the set-ups of one run
/// together measure bits and NMSE on `BLOCKS` × their number blocks.
///
/// # Errors
///
/// Any codec error, or a reference decode of the wrong shape.
pub fn setup(seed: u64, threads: usize, rep: usize, tr: &mut Tracer) -> Result<Archive, String> {
    let tensors = gen::blocks(seed, rep * BLOCKS..(rep + 1) * BLOCKS, D, FFN);
    let (codec, counter) = counted_codec(threads, default_chunk_pixels());
    let ar = tr
        .span("core.encode", 0, || {
            TensorArchive::encode(&codec, &tensors, RateTarget::Qp(QP))
        })
        .map_err(|e| format!("archive encode: {e}"))?;
    let chunk_encodes = count(&counter);
    let bytes = ar.bytes().to_vec();
    let index = tr
        .span("core.archive.parse", 0, || ArchiveIndex::parse(&bytes))
        .map_err(|e| format!("archive index: {e}"))?;
    let reference = TensorArchive::decode(&codec, &bytes).map_err(|e| format!("decode: {e}"))?;
    let mut tiles = Vec::new();
    let mut chunks = 0;
    for (entry, ((_, t), (_, r))) in tensors.iter().zip(&reference).enumerate() {
        if t.shape() != r.shape() {
            return Err(format!("entry {entry}: decoded shape {:?}", r.shape()));
        }
        let ti = index
            .tensor_index(&bytes, entry)
            .map_err(|e| format!("entry {entry} index: {e}"))?;
        chunks += ti.n_chunks() as u64;
        for chunk in 0..ti.n_chunks() {
            for tile in 0..ti.n_tiles(chunk) {
                let (row0, rows) = ti.tile_rows(chunk, tile);
                tiles.push(Tile {
                    entry,
                    chunk,
                    tile,
                    row0,
                    rows,
                });
            }
        }
    }
    let quality = Quality {
        bits: ar.bits() as f64,
        values: ar.entries().iter().map(|(_, r, c)| (r * c) as f64).sum(),
        nmse: tensors
            .iter()
            .zip(&reference)
            .map(|((_, o), (_, r))| check::nmse(o, r))
            .collect(),
    };
    Ok(Archive {
        seed,
        threads,
        codec,
        quality,
        bytes,
        index,
        originals: tensors.into_iter().map(|(_, t)| t).collect(),
        reference: reference.into_iter().map(|(_, t)| t).collect(),
        tiles,
        window: Window {
            chunk_encodes,
            chunks,
        },
    })
}

impl Archive {
    /// Reads one tile and compares it with the reference rows.
    fn tile_op(&self, t: Tile, k: usize, tr: &mut Tracer, pass: &mut Pass) -> Result<(), Failure> {
        let (band, dt) = timed(|| -> Result<Tensor, Failure> {
            let s = tr.enter("core.access.index", k as u64);
            let ti = check::guarded(|| self.index.tensor_index(&self.bytes, t.entry));
            tr.exit(s);
            let stream = check::guarded(|| self.index.stream(&self.bytes, t.entry))?;
            let s = tr.enter("core.access.decode_tile", k as u64);
            let band = ti.and_then(|ti| check::guarded(|| ti.decode_tile(stream, t.chunk, t.tile)));
            tr.exit(s);
            band
        });
        let cols = self.reference[t.entry].cols();
        pass.time(dt, (t.rows * cols * 4) as f64, true);
        if check::rows_match(&band?, &self.reference[t.entry], t.row0) {
            Ok(())
        } else {
            Err(Failure::TileMismatch)
        }
    }

    /// Decodes one whole tensor and compares it with the reference.
    fn full_op(
        &self,
        entry: usize,
        k: usize,
        tr: &mut Tracer,
        pass: &mut Pass,
    ) -> Result<(), Failure> {
        let want = &self.reference[entry];
        let s = tr.enter("core.decode", k as u64);
        let (out, dt) = timed(|| {
            let stream = check::guarded(|| self.index.stream(&self.bytes, entry))?;
            let enc = EncodedTensor::from_parts(stream.to_vec(), want.rows(), want.cols());
            check::guarded(|| self.codec.decode(&enc))
        });
        tr.exit(s);
        pass.time(dt, (want.len() * 4) as f64, false);
        let out = out?;
        check::shape(out.shape(), want.shape())?;
        if check::same(&out, want) {
            Ok(())
        } else {
            Err(Failure::DecodeMismatch)
        }
    }
}

impl Workload for Archive {
    fn setup_quality(&self) -> Quality {
        self.quality.clone()
    }

    fn pass(&self, seconds: f64, tr: &mut Tracer) -> Pass {
        let mut pass = Pass {
            window: Some(self.window),
            ..Pass::default()
        };
        let mut rng = gen::rng(self.seed, gen::OPS_STREAM, 0);
        ops(seconds, MIN_READS, |k| {
            let r = if rng.chance(FULL_SHARE) {
                let entry = rng.below_usize(self.reference.len());
                self.full_op(entry, k, tr, &mut pass)
            } else {
                let t = self.tiles[rng.below_usize(self.tiles.len())];
                self.tile_op(t, k, tr, &mut pass)
            };
            pass.tally.record(r);
        });
        pass
    }

    fn probes(&self, pass: &Pass) -> Probes {
        let entries: Vec<EncodedTensor> = self
            .reference
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let s = self.index.stream(&self.bytes, i).expect("indexed stream");
                EncodedTensor::from_parts(s.to_vec(), t.rows(), t.cols())
            })
            .collect();
        let decode_all = |threads: usize| {
            let (codec, _) = counted_codec(threads, default_chunk_pixels());
            entries
                .iter()
                .map(|e| codec.decode(e).ok().map(Tensor::into_vec))
                .collect::<Option<Vec<_>>>()
        };
        let (pool_speedup, same) = pool_speedup(self.threads, REPLAYS, decode_all);
        // Per-tile share of a 1-thread full decode.
        let full_1t: Vec<f64> = (0..REPLAYS)
            .map(|_| timed(|| decode_all(1)).1.as_secs_f64() * 1e3)
            .collect();
        let per_tile = stats::median(&full_1t).unwrap_or(f64::NAN) / self.tiles.len() as f64;
        let tile_ms = pass.op_ms();
        let tile_mean = tile_ms.iter().sum::<f64>() / tile_ms.len().max(1) as f64;
        let mut kernels = kernels::measure(&kernels::frame_from(&self.originals[0]), QP);
        kernels.exact &= same;
        Probes {
            pool_speedup,
            tile_cost_ratio: Some(tile_mean / per_tile),
            kernels,
        }
    }
}

impl Archive {
    /// Archive with a byte in the middle of tile `t`'s payload flipped.
    #[cfg(test)]
    fn corrupted(mut self, t: Tile) -> Self {
        let stream = self.index.stream_range(t.entry).start;
        let ti = self
            .index
            .tensor_index(&self.bytes, t.entry)
            .expect("index");
        let r = ti.tile_range(t.chunk, t.tile);
        self.bytes[stream + (r.start + r.end) / 2] ^= 0x5a;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Archive {
        setup(7, 2, 0, &mut Tracer::new(false)).expect("set-up")
    }

    #[test]
    fn clean_archive_reads_pass_every_check() {
        let a = small();
        assert!(a.tiles.len() > 14);
        let pass = a.pass(0.0, &mut Tracer::new(false));
        assert_eq!(pass.tally.attempted, MIN_READS as u64);
        assert_eq!(pass.tally.failed(), 0, "{:?}", pass.tally.failed);
        let bpv = a.setup_quality().bits_per_value();
        assert!(bpv > 2.0 && bpv < 4.0, "bpv {bpv}");
    }

    #[test]
    fn flipped_stream_byte_counts_as_failed_op_without_crashing() {
        let a = small();
        let tile = a.tiles[a.tiles.len() / 2];
        let a = a.corrupted(tile);
        let mut pass = Pass::default();
        let mut tr = Tracer::new(true);
        let r = a.tile_op(tile, 0, &mut tr, &mut pass);
        pass.tally.record(r);
        let r = a.full_op(tile.entry, 1, &mut tr, &mut pass);
        pass.tally.record(r);
        assert_eq!((pass.tally.attempted, pass.tally.failed()), (2, 2));
        // Spans stay balanced when an op fails.
        assert!(tr.spans().iter().all(|s| s.end >= s.start));
    }

    #[test]
    fn tile_against_the_wrong_band_is_a_mismatch() {
        let a = small();
        let mut t = a.tiles[1];
        t.row0 = a.tiles[0].row0;
        let mut pass = Pass::default();
        let r = a.tile_op(t, 0, &mut Tracer::new(false), &mut pass);
        assert_eq!(r, Err(Failure::TileMismatch));
    }
}
