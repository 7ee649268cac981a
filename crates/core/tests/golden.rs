//! Golden stream pins across the encoder's decision paths.
//!
//! `parallel.rs` pins the default H.265 configuration at QP 24/30 and the
//! rANS backend. The pins here cover the other ways through the decide
//! loop and the residual kernels, so a kernel that is self-consistent but
//! computes something different (a transform that rounds differently, a
//! mode sweep that ranks candidates differently, an early-out that fires
//! too often) changes a hash instead of passing silently:
//!
//! - H.264 (16×16 CUs split into four 8×8 TUs),
//! - AV1 (Paeth/Smooth predictors next to the angular ones),
//! - transform skip and the fixed partition grid,
//! - the QP extremes 0 and 51,
//! - one bits-goal and one MSE-goal rate search,
//! - one random-access tile decode.
//!
//! Every value was captured from the encoder before its RD kernels were
//! rewritten for speed; the rewrite had to keep all of them. The two
//! rate-search pins were re-pinned once since, when the model-guided
//! search replaced the endpoint-anchored one: it settles on a slightly
//! different QP, so those streams moved while every fixed-QP one held.

use llm265_core::{
    Llm265Codec, Llm265Config, PipelineConfig, Profile, RateTarget, TensorCodec, TensorStreamIndex,
};
use llm265_tensor::rng::Pcg32;
use llm265_tensor::synthetic::{llm_weight, WeightProfile};
use llm265_tensor::Tensor;

fn weight(seed: u64, rows: usize, cols: usize) -> Tensor {
    let mut rng = Pcg32::seed_from(seed);
    llm_weight(rows, cols, &WeightProfile::default(), &mut rng)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn codec(cfg: Llm265Config) -> Llm265Codec {
    Llm265Codec::with_config(Llm265Config { threads: 1, ..cfg })
}

/// One pinned encode: a configuration, a tensor, a target and the
/// expected stream length and hash.
struct Pin {
    name: &'static str,
    cfg: Llm265Config,
    tensor: Tensor,
    target: RateTarget,
    len: usize,
    fnv: u64,
}

fn pins() -> Vec<Pin> {
    let base = Llm265Config::default;
    let no_transform = PipelineConfig {
        transform: false,
        ..PipelineConfig::default()
    };
    let fixed_grid = PipelineConfig {
        adaptive_partition: false,
        ..PipelineConfig::default()
    };
    vec![
        Pin {
            name: "h264 qp 26",
            cfg: Llm265Config {
                profile: Profile::h264(),
                ..base()
            },
            tensor: weight(31, 64, 64),
            target: RateTarget::Qp(26.0),
            len: 1035,
            fnv: 0xc988_ec2d_f24e_adf1,
        },
        Pin {
            name: "av1 qp 26",
            cfg: Llm265Config {
                profile: Profile::av1(),
                ..base()
            },
            tensor: weight(32, 64, 64),
            target: RateTarget::Qp(26.0),
            len: 897,
            fnv: 0x9f86_d71f_fe32_d8f0,
        },
        Pin {
            name: "transform skip qp 26",
            cfg: Llm265Config {
                pipeline: no_transform,
                ..base()
            },
            tensor: weight(33, 64, 64),
            target: RateTarget::Qp(26.0),
            len: 798,
            fnv: 0x9d28_fba6_59c5_f6f7,
        },
        Pin {
            name: "fixed partition qp 26",
            cfg: Llm265Config {
                pipeline: fixed_grid,
                ..base()
            },
            tensor: weight(34, 64, 64),
            target: RateTarget::Qp(26.0),
            len: 1240,
            fnv: 0xe4b4_0d77_92fc_f81f,
        },
        Pin {
            name: "qp 0",
            cfg: base(),
            tensor: weight(35, 64, 64),
            target: RateTarget::Qp(0.0),
            len: 3666,
            fnv: 0xa551_4f99_a0ad_f55b,
        },
        Pin {
            name: "qp 51",
            cfg: base(),
            tensor: weight(36, 64, 64),
            target: RateTarget::Qp(51.0),
            len: 105,
            fnv: 0x6530_943d_a007_bb90,
        },
        Pin {
            name: "bits goal 2.6 bpv",
            cfg: Llm265Config {
                max_chunk_pixels: 96 * 32,
                ..base()
            },
            tensor: weight(37, 96, 96),
            target: RateTarget::BitsPerValue(2.6),
            // Re-pinned for the model-guided rate search (was 2995 B,
            // fnv 0x6ab7_3e29_902f_3de2, QP 24.48).
            len: 2971,
            fnv: 0x4dc7_be6f_9b00_fee6,
        },
        Pin {
            name: "mse goal 0.02",
            cfg: Llm265Config {
                max_chunk_pixels: 96 * 32,
                ..base()
            },
            tensor: weight(38, 96, 96),
            target: RateTarget::MaxNormalizedMse(0.02),
            // Re-pinned for the model-guided rate search (was 3664 B,
            // fnv 0xd1ea_1f4c_8442_2d03, QP 19.49).
            len: 3689,
            fnv: 0x711b_2876_0eec_8182,
        },
    ]
}

#[test]
fn streams_match_golden_hashes_on_every_decision_path() {
    let mut wrong = Vec::new();
    for p in pins() {
        let enc = codec(p.cfg).encode(&p.tensor, p.target).expect("encode");
        let (len, fnv) = (enc.bytes().len(), fnv1a(enc.bytes()));
        if (len, fnv) != (p.len, p.fnv) {
            wrong.push(format!("{}: len {len}, fnv {fnv:#018x}", p.name));
        }
    }
    assert!(wrong.is_empty(), "golden pins moved:\n{}", wrong.join("\n"));
}

/// Random access decodes one tile through the shared inverse transform;
/// its values are pinned bit for bit.
#[test]
fn tile_decode_matches_golden_hash() {
    let t = weight(39, 128, 64);
    let enc = codec(Llm265Config {
        max_chunk_pixels: 64 * 64,
        ..Llm265Config::default()
    })
    .encode(&t, RateTarget::Qp(22.0))
    .expect("encode");
    let idx = TensorStreamIndex::parse(enc.bytes()).expect("index");
    assert_eq!((idx.n_chunks(), idx.n_tiles(1)), (2, 2));
    let band = idx.decode_tile(enc.bytes(), 1, 1).expect("tile");
    let bits: Vec<u8> = band
        .data()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    assert_eq!(
        (band.shape(), fnv1a(&bits)),
        ((32, 64), 0x9b61_0ab8_60cf_5894),
        "fnv {:#018x}",
        fnv1a(&bits)
    );
}
