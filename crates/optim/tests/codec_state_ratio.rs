//! The codec on what an offloading engine writes to a tier, in a subgroup
//! shaped like the `throttled_*` benchmark workloads' (128 Ki parameters
//! in [-1, 1), default Adam, two FP16 gradient sets of magnitude
//! 2^-10 … 2^-2 taken in turn): the state after 4, 8 and 12 steps codes to
//! at most 0.86 of the raw `params | m | v` object; the eager FP32
//! gradient accumulators after one FP16 micro-step to at most 0.47, their
//! low 13 bits being zero; a BF16-born state object to at most 0.36. Each
//! frame decodes to its object bit for bit.
//!
//! Sums of several FP16 micro-steps gain low bits, so the gradients' gain
//! shrinks with the micro-steps an iteration accumulates; that test
//! records the ratios (`--nocapture`) without bounding them.

use mlp_optim::adam::AdamConfig;
use mlp_optim::grads::{GradRef, HostGrads};
use mlp_optim::state::SubgroupState;
use mlp_tensor::codec;

/// Parameters per subgroup.
const N: usize = 128 << 10;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// FP16 bits: random sign and mantissa, biased exponent 5..=12.
fn grads(rng: &mut Rng, n: usize) -> Vec<u16> {
    (0..n)
        .map(|_| {
            let bits = rng.next() as u16;
            (bits & 0x8000) | ((5 + ((bits >> 10) & 0x7)) << 10) | (bits & 0x03FF)
        })
        .collect()
}

/// The frame's length over the object's, once the frame has decoded to
/// the object bit for bit.
fn ratio(raw: &[u8], what: &str) -> f64 {
    let mut frame = vec![0u8; raw.len()];
    let len = codec::encode(raw, &mut frame).unwrap_or_else(|| panic!("{what}: codes shorter"));
    let mut back = vec![0u8; raw.len()];
    codec::decode(&frame[..len], &mut back).expect("decodes");
    assert!(back == raw, "{what}: round trip differs");
    len as f64 / raw.len() as f64
}

fn bytes(words: &[f32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Adam's state after each of `steps` steps over the two gradient sets,
/// and the sets.
fn trained(steps: usize) -> (Vec<Vec<u8>>, [Vec<u16>; 2]) {
    let mut rng = Rng(42);
    let params = (0..N).map(|_| (rng.next() >> 40) as f32 / (1u32 << 23) as f32 - 1.0);
    let mut state = SubgroupState::new(params.collect());
    let sets = [grads(&mut rng, N), grads(&mut rng, N)];
    let cfg = AdamConfig::default();
    let states = (1..=steps)
        .map(|step| {
            state.apply_update_fp16(&cfg, &sets[step % 2], 1.0);
            state.to_buffer().as_bytes().to_vec()
        })
        .collect();
    (states, sets)
}

/// The eager FP32 accumulators' object after `micro_steps` FP16 micro-steps
/// over the gradient sets in turn.
fn accumulated(sets: &[Vec<u16>; 2], micro_steps: usize) -> Vec<u8> {
    let mut host = HostGrads::new(&[N], true);
    for step in 0..micro_steps {
        host.accumulate(std::slice::from_ref(&sets[step % 2]));
    }
    let GradRef::Fp32(words) = host.get(0) else {
        panic!("eager accumulators are FP32");
    };
    bytes(words)
}

/// Every word of `raw` rounded to BF16 (to nearest, ties to even): its
/// low 16 bits zero.
fn bf16_born(raw: &[u8]) -> Vec<u8> {
    let round = |&word: &[u8; 4]| {
        let bits = u32::from_le_bytes(word);
        (bits.wrapping_add(0x7FFF + ((bits >> 16) & 1)) & 0xFFFF_0000).to_le_bytes()
    };
    raw.as_chunks::<4>().0.iter().flat_map(round).collect()
}

#[test]
fn adam_state_of_the_benchmark_shape_codes_below_0_86_of_raw() {
    let (states, _) = trained(12);
    for step in [4, 8, 12] {
        let ratio = ratio(&states[step - 1], &format!("state after step {step}"));
        assert!(ratio <= 0.86, "step {step}: {ratio}");
    }
}

#[test]
fn fp32_gradients_of_one_fp16_micro_step_code_below_0_47_of_raw() {
    let (_, sets) = trained(0);
    let ratio = ratio(&accumulated(&sets, 1), "gradients of one micro-step");
    assert!(ratio <= 0.47, "{ratio}");
}

#[test]
fn a_bf16_born_state_object_codes_below_0_36_of_raw() {
    let (states, _) = trained(12);
    let ratio = ratio(&bf16_born(&states[11]), "BF16-born state");
    assert!(ratio <= 0.36, "{ratio}");
}

/// Where the gradients' gain ends: a sum of FP16 values has bits below
/// each one's lowest. Recorded, not bounded.
#[test]
fn gradient_ratios_after_several_micro_steps_and_bf16_rounding_are_recorded() {
    let (_, sets) = trained(0);
    for micro_steps in [1, 2, 4] {
        let ratio = ratio(&accumulated(&sets, micro_steps), "accumulated gradients");
        eprintln!("FP32 gradients after {micro_steps} FP16 micro-steps: {ratio:.4} of raw");
    }
    let raw = bf16_born(&accumulated(&sets, 1));
    let ratio = ratio(&raw, "BF16-born gradients");
    eprintln!("BF16-born gradients: {ratio:.4} of raw");
}
