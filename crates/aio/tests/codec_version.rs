//! What the codec stage does with an object of another codec version, and
//! the meters of its coding time.

use std::io;
use std::sync::Arc;

use mlp_aio::{AioConfig, AioEngine};
use mlp_storage::{Backend, MemBackend};
use mlp_tensor::PinnedPool;
use mlp_trace::TraceSink;

/// Bytes of one object: 2 Ki FP32 words.
const FRAME: usize = 8 << 10;

/// A frame an older build wrote: the `MLz1` header of an object of `raw`
/// bytes, and a body of half that.
fn old_frame(raw: usize) -> Vec<u8> {
    let mut frame = b"MLz1".to_vec();
    frame.extend_from_slice(&(raw as u32).to_le_bytes());
    frame.extend(std::iter::repeat_n(7u8, raw / 2));
    frame
}

fn refused(read: io::Result<()>, how: &str) {
    let e = read.expect_err(how);
    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{how}: {e}");
    assert!(e.to_string().contains("version '1'"), "{how}: {e}");
}

#[test]
fn an_object_of_another_codec_version_fails_pooled_and_plain_reads_typed() {
    let backend = Arc::new(MemBackend::new("mem"));
    backend.write("old", &old_frame(FRAME)).unwrap();
    let engine = AioEngine::new(backend as Arc<dyn Backend>, AioConfig::deterministic());
    let pool = PinnedPool::new(1, FRAME);
    let pooled = engine
        .submit_read_pooled("old", pool.acquire(), FRAME)
        .wait_pooled();
    refused(pooled.map(drop), "pooled read");
    refused(engine.submit_read("old").wait().map(drop), "plain read");
}

#[test]
fn encode_and_decode_time_is_metered_per_tier() {
    let trace = TraceSink::enabled();
    let backend = Arc::new(MemBackend::new("mem"));
    let engine = AioEngine::new(
        backend as Arc<dyn Backend>,
        AioConfig {
            trace: trace.clone(),
            ..AioConfig::deterministic()
        },
    );
    // A memory tier stays raw, but its first write trials the codec: one
    // block encoded before the write, decoded once it has landed.
    let state: Vec<u8> = (0..FRAME / 4)
        .flat_map(|i| (i as f32 * 1e-3).to_le_bytes())
        .collect();
    engine.submit_write("k", state.clone()).wait().unwrap();
    assert!(engine.submit_read("k").wait().unwrap() == Some(state));
    let snap = trace.metrics_snapshot();
    for meter in ["encode_ns", "decode_ns"] {
        let nanos = snap.counter(&format!("aio.mem.{meter}"));
        assert!(nanos.is_some_and(|n| n > 0), "{meter}: {nanos:?}");
    }
}
