//! `update_kernels_baseline` — measures the fused single-pass update
//! Adam kernel against the legacy multi-pass pipeline (upscale sweep →
//! Adam sweep → downscale sweep) at 1M and 16M elements, plus the layers under and beside it — the bulk FP16⇄FP32
//! conversions and host gradient accumulation — and writes the
//! machine-readable baseline consumed by CI and tracked in
//! `BENCH_update_kernels.json`.
//!
//! ```text
//! update_kernels_baseline [OUTPUT_PATH]   (default: BENCH_update_kernels.json)
//! ```
//!
//! Reported per (kernel, size, path): elements/second and effective
//! GB/s of memory traffic, each from the row's fastest call — at least 10
//! calls and 2 s of them (`codec` rows: 1,000 calls and 1 s). Every row is
//! a fixed computation that a busy host only slows; a mean over the calls
//! moved the 16M fused/multi-pass speedup between 1.9× and 4.5× with host
//! load. The byte counts per element differ by design —
//! that asymmetry *is* the optimization. Fused touches each state array
//! once (12 B read + 12 B write), the FP16 gradients once (2 B), and the
//! FP16 output once (2 B): 28 B/element. Multi-pass adds a materialized
//! FP32 gradient scratch vector (4 B write + 4 B read), re-reads the
//! parameters for the downscale sweep (4 B), and re-writes FP16 (2 B on
//! top of the same 26): 40 B/element plus a heap allocation per call.
//!
//! The `convert` rows (paths `upscale`, `upscale_scaled`, `downscale`) are
//! the sequential `mlp_tensor::convert` loops every kernel above is built
//! from, 6 B/element each. The `accumulate` rows run
//! `GradAccumulator::accumulate` over the same element count cut into
//! `PAR_CHUNK` subgroups: `store` is an iteration's first micro-step
//! (an O(1) `reset` + a storing `accumulate`: 2 B read, 2 B written,
//! 4 B/element), `add` every later one (2 × 2 B read, 2 B written).
//!
//! Every row names the vector-width `level` it ran at. The rows above go
//! through the kernels' entry points, which dispatch to the widest level
//! the host has (`mlp_tensor::simd`; `simd_level` in the output) — of a
//! `multi_pass` row only the two conversion sweeps do, its optimizer sweep
//! being the portable reference loop. The last block repeats the kernels' *bodies* — `fused_chunk_fp16` under
//! Adam, `upscale_scaled`, `downscale`, `store_f16`, `add_f16` — once per
//! level the host has, on one core over one cache-resident `PAR_CHUNK`
//! chunk, where nothing but the instantiation differs. That block is the
//! guard on the dispatcher's inlining contract: a level that measures like
//! `portable` did not inline.
//!
//! The `codec` rows guard `mlp_tensor::codec` the same way: its
//! `encode_body` / `decode_body` once per level, on one core, on the two
//! objects a `throttled_*` benchmark tier codes — a 1.5 MiB state object
//! (128 Ki parameters after 12 default-Adam steps over the benchmark's two
//! FP16 gradient sets, paths `encode_state` / `decode_state`) and a
//! 512 KiB gradient object (the eager FP32 accumulators after one FP16
//! micro-step, `encode_grad` / `decode_grad`). Elements are FP32 words and
//! GB/s counts raw bytes, and the stderr line adds the best time per
//! object.

#![forbid(unsafe_code)]

use std::time::Instant;

use mlp_bench::round_to;
use mlp_optim::accum::{add_f16, store_f16, GradAccumulator};
use mlp_optim::adam::{adam_step_par, AdamConfig};
use mlp_optim::fused::{fused_chunk_fp16, fused_update_fp16};
use mlp_optim::grads::{GradRef, HostGrads};
use mlp_optim::SubgroupState;
use mlp_tensor::{at_host_width, codec, convert, SimdLevel, F16, PAR_CHUNK};
use mlp_trace::json::Value;

/// Effective bytes of memory traffic per element, fused path.
const FUSED_BYTES_PER_ELEM: f64 = 28.0;
/// Effective bytes of memory traffic per element, multi-pass path.
const MULTI_BYTES_PER_ELEM: f64 = 40.0;
/// Effective bytes of memory traffic per element of one conversion sweep
/// or one adding accumulation micro-step.
const SWEEP_BYTES_PER_ELEM: f64 = 6.0;
/// Effective bytes of memory traffic per element of a storing accumulation
/// micro-step.
const STORE_BYTES_PER_ELEM: f64 = 4.0;

struct Measurement {
    optimizer: &'static str,
    elements: usize,
    path: &'static str,
    level: &'static str,
    elements_per_s: f64,
    gb_per_s: f64,
    iters: u64,
}

/// Gradients every row reads: finite, both signs, a few hundred distinct
/// values.
fn grads_fp16(n: usize) -> Vec<u16> {
    (0..n)
        .map(|i| F16::from_f32(((i % 1000) as f32 - 500.0) * 1e-4).to_bits())
        .collect()
}

/// The best rate of `run` over `n` elements, after one warm-up call
/// (page-in, branch warm), over at least 10 calls and 2 s of them — a
/// `codec` row's, 1,000 calls and 1 s. Every row is a fixed computation
/// that a busy host only slows, so its cost is its fastest call: a mean
/// would move with the host's load. `level` is the width `run` executes
/// at: [`SimdLevel::widest`] through a dispatching entry point.
fn best_of(
    optimizer: &'static str,
    n: usize,
    path: &'static str,
    level: SimdLevel,
    bytes_per_elem: f64,
    mut run: impl FnMut(),
) -> Measurement {
    run();
    let (calls, secs) = if optimizer == "codec" {
        (1000, 1.0)
    } else {
        (10, 2.0)
    };
    let (mut iters, mut best) = (0u64, f64::MAX);
    let start = Instant::now();
    while iters < calls || start.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        run();
        best = best.min(t.elapsed().as_secs_f64());
        iters += 1;
    }
    let elements_per_s = n as f64 / best;
    Measurement {
        optimizer,
        elements: n,
        path,
        level: level.name(),
        elements_per_s,
        gb_per_s: elements_per_s * bytes_per_elem / 1e9,
        iters,
    }
}

fn measure(adam: &AdamConfig, n: usize, fused: bool) -> Measurement {
    let grads_fp16 = grads_fp16(n);
    let inv_scale = 1.0 / 1024.0;
    let mut params = vec![0.1f32; n];
    let mut momentum = vec![0.0f32; n];
    let mut variance = vec![0.0f32; n];
    let mut fp16_out = vec![0u16; n];

    let (path, bytes) = if fused {
        ("fused", FUSED_BYTES_PER_ELEM)
    } else {
        ("multi_pass", MULTI_BYTES_PER_ELEM)
    };
    let mut step = 0u64;
    best_of("adam", n, path, SimdLevel::widest(), bytes, || {
        step += 1;
        if fused {
            fused_update_fp16(
                adam,
                step,
                &mut params,
                &mut momentum,
                &mut variance,
                &grads_fp16,
                inv_scale,
                &mut fp16_out,
            );
        } else {
            let mut scratch = vec![0.0f32; n];
            convert::upscale_scaled_par(&grads_fp16, &mut scratch, inv_scale);
            adam_step_par(
                adam,
                step,
                &mut params,
                &mut momentum,
                &mut variance,
                &scratch,
            );
            convert::downscale_par(&params, &mut fp16_out);
        }
    })
}

/// The three sequential conversion sweeps and the two kinds of
/// accumulation micro-step, at `n` elements. The sweeps are bodies that
/// run at their caller's width: dispatched here as `*_par` does per chunk.
fn measure_conversions_and_accumulation(n: usize) -> Vec<Measurement> {
    let half = grads_fp16(n);
    let mut single = vec![0.0f32; n];
    let mut half_out = vec![0u16; n];
    let micro_step: Vec<Vec<u16>> = half.chunks(PAR_CHUNK).map(<[u16]>::to_vec).collect();
    let lens: Vec<usize> = micro_step.iter().map(Vec::len).collect();
    let mut acc = GradAccumulator::new(&lens);
    let widest = SimdLevel::widest();
    vec![
        best_of(
            "convert",
            n,
            "upscale",
            widest,
            SWEEP_BYTES_PER_ELEM,
            || {
                at_host_width(
                    #[inline(always)]
                    || convert::upscale(&half, &mut single),
                )
            },
        ),
        best_of(
            "convert",
            n,
            "upscale_scaled",
            widest,
            SWEEP_BYTES_PER_ELEM,
            || {
                at_host_width(
                    #[inline(always)]
                    || convert::upscale_scaled(&half, &mut single, 1.0 / 1024.0),
                )
            },
        ),
        best_of(
            "convert",
            n,
            "downscale",
            widest,
            SWEEP_BYTES_PER_ELEM,
            || {
                at_host_width(
                    #[inline(always)]
                    || convert::downscale(&single, &mut half_out),
                )
            },
        ),
        best_of(
            "accumulate",
            n,
            "store",
            widest,
            STORE_BYTES_PER_ELEM,
            || {
                acc.reset();
                acc.accumulate(&micro_step);
            },
        ),
        best_of("accumulate", n, "add", widest, SWEEP_BYTES_PER_ELEM, || {
            acc.accumulate(&micro_step)
        }),
    ]
}

/// The kernels' bodies compiled at `level`, on one core over one
/// cache-resident `PAR_CHUNK` chunk: the same five loops at every level,
/// so the rows differ by the instantiation alone.
fn measure_bodies_at(level: SimdLevel) -> Vec<Measurement> {
    let n = PAR_CHUNK;
    let adam = AdamConfig::default();
    let half = grads_fp16(n);
    let mut params = vec![0.1f32; n];
    let mut momentum = vec![0.0f32; n];
    let mut variance = vec![0.0f32; n];
    let mut half_out = vec![0u16; n];
    let mut summed = vec![0u16; n];
    let mut step = 0u64;
    vec![
        best_of(
            "adam",
            n,
            "fused_chunk",
            level,
            FUSED_BYTES_PER_ELEM,
            || {
                step += 1;
                level.run(
                    #[inline(always)]
                    || {
                        let (p, m, v) = (&mut params[..], &mut momentum[..], &mut variance[..]);
                        fused_chunk_fp16(&adam, step, p, m, v, &half, 1.0 / 1024.0, &mut half_out)
                    },
                )
            },
        ),
        best_of(
            "convert",
            n,
            "upscale_scaled",
            level,
            SWEEP_BYTES_PER_ELEM,
            || {
                level.run(
                    #[inline(always)]
                    || convert::upscale_scaled(&half, &mut params, 1.0 / 1024.0),
                )
            },
        ),
        best_of(
            "convert",
            n,
            "downscale",
            level,
            SWEEP_BYTES_PER_ELEM,
            || {
                level.run(
                    #[inline(always)]
                    || convert::downscale(&params, &mut half_out),
                )
            },
        ),
        best_of(
            "accumulate",
            n,
            "store",
            level,
            STORE_BYTES_PER_ELEM,
            || {
                level.run(
                    #[inline(always)]
                    || store_f16(&mut summed, &half),
                )
            },
        ),
        best_of("accumulate", n, "add", level, SWEEP_BYTES_PER_ELEM, || {
            level.run(
                #[inline(always)]
                || add_f16(&mut summed, &half),
            )
        }),
    ]
}

/// Parameters in the subgroup the `codec` rows code: the `throttled_*`
/// benchmark workloads'.
const CODEC_PARAMS: usize = 128 << 10;

/// SplitMix64.
fn split_mix(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FP16 gradient bits of the benchmark's shape: random sign and mantissa,
/// biased exponent 5..=12 (magnitudes 2^-10 … 2^-2).
fn benchmark_grads(seed: &mut u64, n: usize) -> Vec<u16> {
    (0..n)
        .map(|_| {
            let bits = split_mix(seed) as u16;
            (bits & 0x8000) | ((5 + ((bits >> 10) & 0x7)) << 10) | (bits & 0x03FF)
        })
        .collect()
}

/// The two objects the `codec` rows code, raw, with their encode and
/// decode paths: the state of a subgroup whose parameters start uniform in
/// [-1, 1) after 12 Adam steps over two gradient sets taken in turn
/// (`mlp-optim`'s `codec_state_ratio` test's state), and its eager FP32
/// gradients after one micro-step of a set.
fn codec_objects() -> [(&'static str, &'static str, Vec<u8>); 2] {
    let mut seed = 42u64;
    let params =
        (0..CODEC_PARAMS).map(|_| (split_mix(&mut seed) >> 40) as f32 / (1u32 << 23) as f32 - 1.0);
    let mut state = SubgroupState::new(params.collect());
    let sets = [
        benchmark_grads(&mut seed, CODEC_PARAMS),
        benchmark_grads(&mut seed, CODEC_PARAMS),
    ];
    for step in 1..=12 {
        state.apply_update_fp16(&AdamConfig::default(), &sets[step % 2], 1.0);
    }
    let mut grads = HostGrads::new(&[CODEC_PARAMS], true);
    grads.accumulate(&sets[..1]);
    let GradRef::Fp32(words) = grads.get(0) else {
        panic!("eager accumulators are FP32");
    };
    [
        (
            "encode_state",
            "decode_state",
            state.to_buffer().as_bytes().to_vec(),
        ),
        (
            "encode_grad",
            "decode_grad",
            words.iter().flat_map(|w| w.to_le_bytes()).collect(),
        ),
    ]
}

/// `encode_body` and `decode_body` at `level` on each of `objects`.
fn measure_codec_at(
    level: SimdLevel,
    objects: &[(&'static str, &'static str, Vec<u8>)],
) -> Vec<Measurement> {
    let mut rows = Vec::new();
    for (encode, decode, raw) in objects {
        let mut frame = vec![0u8; raw.len()];
        let len = codec::encode(raw, &mut frame).expect("the benchmark's objects code shorter");
        let mut back = vec![0u8; raw.len()];
        rows.push(best_of("codec", raw.len() / 4, encode, level, 4.0, || {
            level.run(
                #[inline(always)]
                || codec::encode_body(raw, &mut frame),
            );
        }));
        rows.push(best_of("codec", raw.len() / 4, decode, level, 4.0, || {
            let decoded = level.run(
                #[inline(always)]
                || codec::decode_body(&frame[..len], &mut back),
            );
            decoded.expect("decodes");
        }));
        assert!(back == *raw, "{decode}: round trip differs");
    }
    rows
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_update_kernels.json".to_string());
    let adam = AdamConfig::default();

    eprintln!("dispatching at {}", SimdLevel::widest().name());
    let mut results = Vec::new();
    let mut report = |m: Measurement| {
        eprintln!(
            "{:>10} {:>9} {:>14} {:>8}: {:8.1} Melem/s  {:6.2} GB/s  ({} iters{})",
            m.optimizer,
            m.elements,
            m.path,
            m.level,
            m.elements_per_s / 1e6,
            m.gb_per_s,
            m.iters,
            match m.optimizer {
                "codec" => format!(
                    "; best {:.4} ms",
                    m.elements as f64 / m.elements_per_s * 1e3
                ),
                _ => String::new(),
            }
        );
        results.push(m);
    };
    for n in [1usize << 20, 1 << 24] {
        [true, false]
            .map(|fused| measure(&adam, n, fused))
            .into_iter()
            .chain(measure_conversions_and_accumulation(n))
            .for_each(&mut report);
    }
    SimdLevel::available()
        .flat_map(measure_bodies_at)
        .for_each(&mut report);
    let objects = codec_objects();
    SimdLevel::available()
        .flat_map(|level| measure_codec_at(level, &objects))
        .for_each(&mut report);

    // Headline ratio the baseline tracks: fused vs multi-pass Adam speedup
    // in elements/s at 16M.
    let at = |path: &str| {
        results
            .iter()
            .find(|m| m.optimizer == "adam" && m.elements == 1 << 24 && m.path == path)
            .expect("measured")
            .elements_per_s
    };
    let speedup = at("fused") / at("multi_pass");
    eprintln!("adam: fused/multi_pass speedup @16M = {speedup:.2}x");

    // Keys in the committed file's (alphabetical) order.
    let doc = Value::obj([
        ("benchmark", "update_kernels".into()),
        ("bytes_per_element", Value::obj([
            ("fused", FUSED_BYTES_PER_ELEM.into()),
            ("multi_pass", MULTI_BYTES_PER_ELEM.into()),
            ("store", STORE_BYTES_PER_ELEM.into()),
            ("sweep", SWEEP_BYTES_PER_ELEM.into()),
        ])),
        ("description", "fused single-pass mixed-precision update vs multi-pass (upscale, step, downscale) — elements/s and effective GB/s per optimizer; plus the sequential conversion sweeps and host gradient accumulation (store = first micro-step after an O(1) reset, add = every later one), all at simd_level, the widest vector width the host has; plus the kernel bodies on one core over one PAR_CHUNK chunk once per level the host has (fused_chunk = fused_chunk_fp16 under Adam); plus the lossless tier codec's encode and decode bodies once per level on one core, on a benchmark-shaped 1.5 MiB state object and a 512 KiB FP16-born FP32 gradient object (elements = FP32 words, GB/s of raw bytes); every rate is its row's fastest call (at least 10 calls and 2 s; codec rows at least 1,000 calls and 1 s)".into()),
        ("results", results.iter().map(|m| Value::obj([
            ("elements", m.elements.into()),
            ("elements_per_s", m.elements_per_s.round().into()),
            ("gb_per_s", round_to(m.gb_per_s, 3).into()),
            ("iters", m.iters.into()),
            ("level", m.level.into()),
            ("optimizer", m.optimizer.into()),
            ("path", m.path.into()),
        ])).collect()),
        ("simd_level", SimdLevel::widest().name().into()),
        ("speedup_at_16m", Value::obj([("adam", round_to(speedup, 2).into())])),
        ("threads", std::thread::available_parallelism().map_or(1, |p| p.get()).into()),
    ]);
    std::fs::write(&out_path, doc.pretty() + "\n").expect("write baseline");
    println!("wrote {out_path}");
}
