//! The state codec on the state Adam leaves in a subgroup shaped like the
//! `throttled_*` benchmark workloads' (128 Ki parameters in [-1, 1),
//! default Adam, two FP16 gradient sets of magnitude 2^-10 … 2^-2 taken in
//! turn): after 4, 8 and 12 steps its frame is at most 0.86 of the raw
//! `params | m | v` object, and decodes to it bit for bit.

use mlp_optim::adam::AdamConfig;
use mlp_optim::state::SubgroupState;
use mlp_tensor::codec;

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

#[test]
fn adam_state_of_the_benchmark_shape_codes_below_0_86_of_raw() {
    let n = 128 << 10;
    let mut rng = Rng(42);
    let params = (0..n).map(|_| (rng.next() >> 40) as f32 / (1u32 << 23) as f32 - 1.0);
    let mut state = SubgroupState::new(params.collect());
    let sets = [grads(&mut rng, n), grads(&mut rng, n)];
    let cfg = AdamConfig::default();
    for step in 1..=12 {
        state.apply_update_fp16(&cfg, &sets[step % 2], 1.0);
        if step % 4 != 0 {
            continue;
        }
        let raw = state.to_buffer();
        let raw = raw.as_bytes();
        let mut frame = vec![0u8; raw.len()];
        let len = codec::encode(raw, &mut frame).expect("state codes shorter");
        let ratio = len as f64 / raw.len() as f64;
        assert!(ratio <= 0.86, "step {step}: {ratio}");
        let mut back = vec![0u8; raw.len()];
        codec::decode(&frame[..len], &mut back).expect("decodes");
        assert!(back == raw, "step {step}: round trip differs");
    }
}
