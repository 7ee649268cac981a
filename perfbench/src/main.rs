//! End-to-end and per-layer benchmark of the LLM.265 tensor codec.
//!
//! ```text
//! perfbench --workload <weights_rate|grad_stream|archive_read|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it sets each workload up several times, runs one
//! closed-loop pass of `--seconds`, checks every output and prints the
//! end-to-end metrics. With `--trace 1` it runs an untraced and a traced
//! pass of half the time each, prints the per-layer table derived from
//! the traced pass's spans and the tracing overhead, and writes the spans
//! to `perfbench/out/`. The last line of standard output is one JSON
//! object. See `perfbench/README.md`.

mod archive;
mod check;
mod gen;
mod grad;
mod kernels;
mod mem;
mod stats;
mod trace;
mod weights;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use check::Tally;
use trace::Tracer;
use workload::{Pass, Probes, Quality, Workload};

#[global_allocator]
static ALLOC: mem::Counting = mem::Counting;

const WORKLOADS: [&str; 3] = ["weights_rate", "grad_stream", "archive_read"];
/// Seed used when none is given.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 35.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Where the traced run writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// One named metric value.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// The end-to-end metrics of one pass. Bits and NMSE are over the pass's
/// encodes and the set-ups' own (`setup_quality`).
fn e2e(setup_s: f64, setup_quality: &Quality, pass: &Pass, heap_mb: f64) -> Vec<Metric> {
    let op_ms = pass.op_ms();
    let pct = |p| stats::percentile(&op_ms, p).unwrap_or(f64::NAN);
    let mut q = pass.quality.clone();
    q.merge(setup_quality);
    vec![
        metric("setup_s", "s", setup_s),
        metric("mb_per_s", "MB/s", pass.mb_per_s()),
        metric("op_ms_p50", "ms", pct(50.0)),
        metric("op_ms_p90", "ms", pct(90.0)),
        metric("bits_per_value", "bits", q.bits_per_value()),
        metric("nmse", "ratio", q.nmse()),
        metric("peak_heap_mb", "MB", heap_mb),
    ]
}

/// What the headline op and its throughput are on each workload.
fn op_label(workload: &str) -> (&'static str, &'static str) {
    match workload {
        "weights_rate" => ("encode", "f32 input MB per encode-second"),
        "grad_stream" => ("transcode step", "f32 input MB per transcode-second"),
        _ => (
            "tile read",
            "f32 output MB per read-second (tiles and full decodes)",
        ),
    }
}

/// The per-layer metrics of a traced pass.
fn per_layer(tr: &Tracer, pass: &Pass, probes: &Probes) -> Vec<Metric> {
    let busy = tr.busy();
    let get = |name: &str| busy.get(name).copied().unwrap_or_default();
    let mean = |name: &str, scale: f64| {
        let b = get(name);
        if b.calls == 0 {
            0.0
        } else {
            b.self_ms * scale / b.calls as f64
        }
    };
    let (enc, dec) = (get("core.encode"), get("core.decode"));
    let w = pass.window.unwrap_or(workload::Window {
        chunk_encodes: 0,
        chunks: 0,
    });
    let k = &probes.kernels;
    vec![
        metric("core.encode.busy_ms", "ms", enc.self_ms),
        metric("core.encode.calls", "count", enc.calls as f64),
        metric("core.encode.chunk_encodes", "count", w.chunk_encodes as f64),
        metric(
            "core.rate.useful_probe_ratio",
            "ratio",
            w.chunks as f64 / w.chunk_encodes.max(1) as f64,
        ),
        metric("core.decode.busy_ms", "ms", dec.self_ms),
        metric("core.decode.calls", "count", dec.calls as f64),
        metric("core.pool.speedup", "x", probes.pool_speedup),
        metric(
            "core.archive.parse_us",
            "us",
            mean("core.archive.parse", 1e3),
        ),
        metric("core.access.index_us", "us", mean("core.access.index", 1e3)),
        metric(
            "core.access.decode_tile_ms",
            "ms",
            mean("core.access.decode_tile", 1.0),
        ),
        metric(
            "core.access.tile_cost_ratio",
            "ratio",
            probes.tile_cost_ratio.unwrap_or(0.0),
        ),
        metric(
            "videocodec.encode_ms_per_mpix",
            "ms/Mpix",
            k.encode_ms_per_mpix,
        ),
        metric(
            "videocodec.decode_ms_per_mpix",
            "ms/Mpix",
            k.decode_ms_per_mpix,
        ),
        metric("videocodec.intra.ns_per_pred", "ns", k.intra_ns_per_pred),
        metric(
            "videocodec.transform.ns_per_coeff",
            "ns",
            k.transform_ns_per_coeff,
        ),
        metric("videocodec.quant.ns_per_coeff", "ns", k.quant_ns_per_coeff),
        metric(
            "videocodec.syntax.rd_cost_ns_per_bin",
            "ns",
            k.rd_cost_ns_per_bin,
        ),
        metric(
            "bitstream.cabac.encode_ns_per_bin",
            "ns",
            k.cabac_encode_ns_per_bin,
        ),
        metric(
            "bitstream.cabac.decode_ns_per_bin",
            "ns",
            k.cabac_decode_ns_per_bin,
        ),
        metric("bitstream.cabac.bins", "count", k.cabac_bins as f64),
    ]
}

fn print_table(title: &str, ms: &[Metric]) {
    println!("{title}");
    for m in ms {
        println!("  {:<38} {:>14.6} {}", m.name, m.value, m.unit);
    }
}

/// Sample counts and failures behind the metrics.
fn print_samples(workload: &str, pass: &Pass) {
    let (op, tput) = op_label(workload);
    let op_ms = pass.op_ms();
    let n = op_ms.len();
    let beyond = stats::beyond(n, 900);
    println!(
        "  op_ms_*: every {op}: {n} samples, {beyond} beyond p90 ({} timed runs in all)",
        pass.samples.len()
    );
    match stats::tail(&op_ms) {
        Some(t) => println!(
            "  tail: p{} = {:.4} ms over {} samples",
            t.pct, t.value, t.samples
        ),
        None => println!(
            "  tail: fewer than {} samples beyond p75",
            stats::MIN_BEYOND
        ),
    }
    println!("  mb_per_s: {tput}");
    let t = &pass.tally;
    let kinds: Vec<String> = t
        .failed
        .iter()
        .map(|(f, c)| format!("{}={c}", f.name()))
        .collect();
    println!(
        "  failed_frac {:.6} ({} of {} ops failed{}{})",
        t.failed_frac(),
        t.failed(),
        t.attempted,
        if kinds.is_empty() { "" } else { ": " },
        kinds.join(", ")
    );
}

/// Result of one workload run.
struct Outcome {
    tally: Tally,
    exact: bool,
    metrics: Vec<Metric>,
}

/// Set-up number `rep`. Only `archive_read` set-ups differ by `rep`: each
/// archives blocks of its own.
fn setup_once(
    workload: &str,
    seed: u64,
    threads: usize,
    rep: usize,
    tr: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "weights_rate" => Box::new(weights::setup(seed)),
        "grad_stream" => Box::new(grad::setup(seed, threads)),
        _ => Box::new(archive::setup(seed, threads, rep, tr)?),
    })
}

/// Runs one workload. The heap peak it reports is its own, from the
/// start of its set-up: an earlier workload in the process does not count.
fn run(workload: &str, args: &Args, threads: usize) -> Result<Outcome, String> {
    mem::reset_peak();
    println!(
        "workload {workload}  seed {}  seconds {}  threads {threads}  trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tr = Tracer::new(args.trace);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setup_quality = Quality::default();
    let mut w = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let built = setup_once(workload, args.seed, threads, rep, &mut tr)?;
        setups.push(t0.elapsed().as_secs_f64());
        setup_quality.merge(&built.setup_quality());
        w = Some(built);
    }
    let w = w.ok_or("no set-up ran")?;
    let setup_s = stats::median(&setups).unwrap_or(f64::NAN);

    if !args.trace {
        tr.set_enabled(false);
        let pass = w.pass(args.seconds, &mut tr);
        let metrics = e2e(setup_s, &setup_quality, &pass, mem::peak_mb());
        print_table("end-to-end:", &metrics);
        print_samples(workload, &pass);
        return Ok(Outcome {
            tally: pass.tally,
            exact: true,
            metrics,
        });
    }

    // Each pass's heap peak is its own: set-up state plus what the pass
    // adds (the traced pass keeps its spans in memory).
    let half = args.seconds / 2.0;
    tr.set_enabled(false);
    mem::reset_peak();
    let plain = w.pass(half, &mut tr);
    let heap_plain = mem::peak_mb();
    tr.set_enabled(true);
    mem::reset_peak();
    let traced = w.pass(half, &mut tr);
    tr.set_enabled(false);
    let heap_traced = mem::peak_mb();
    let probes = w.probes(&traced);
    let a = e2e(setup_s, &setup_quality, &plain, heap_plain);
    let b = e2e(setup_s, &setup_quality, &traced, heap_traced);
    println!("tracing overhead (traced pass vs untraced pass, {half} s each):");
    for (x, y) in a.iter().zip(&b).filter(|(x, _)| x.name != "setup_s") {
        println!(
            "  {:<18} untraced {:>14.6}  traced {:>14.6}  diff {:>+10.6} {} ({:+.2}%)",
            x.name,
            x.value,
            y.value,
            y.value - x.value,
            x.unit,
            100.0 * (y.value - x.value) / x.value
        );
    }
    let layers = per_layer(&tr, &traced, &probes);
    print_table(
        "per-layer (traced pass, replays and kernel probes):",
        &layers,
    );
    print_samples(workload, &traced);
    let path = format!("{SPAN_DIR}/spans-{workload}-seed{}.jsonl", args.seed);
    std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| std::fs::write(&path, tr.to_jsonl()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("  {} spans written to {path}", tr.spans().len());
    let mut tally = plain.tally;
    tally.merge(&traced.tally);
    Ok(Outcome {
        tally,
        exact: probes.kernels.exact,
        metrics: layers,
    })
}

/// The result line: one JSON object.
fn result_json(o: &Outcome) -> String {
    let mut m = String::new();
    for (i, x) in o.metrics.iter().enumerate() {
        let _ = write!(
            m,
            r#"{}"{}": {{"value": {}, "unit": "{}"}}"#,
            if i == 0 { "" } else { ", " },
            x.name,
            x.value,
            x.unit
        );
    }
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{m}}}}}"#,
        o.exact && o.tally.failed() == 0,
        o.tally.attempted,
        o.tally.failed()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all = Outcome {
        tally: Tally::default(),
        exact: true,
        metrics: Vec::new(),
    };
    for name in &names {
        let o = match run(name, &args, threads) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(bad) = o.metrics.iter().find(|m| !m.value.is_finite()) {
            eprintln!("perfbench: {name}: metric {} is not finite", bad.name);
            return ExitCode::FAILURE;
        }
        all.tally.merge(&o.tally);
        all.exact &= o.exact;
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        all.metrics.extend(o.metrics.into_iter().map(|m| Metric {
            name: format!("{prefix}{}", m.name),
            ..m
        }));
    }
    println!("{}", result_json(&all));
    ExitCode::SUCCESS
}
