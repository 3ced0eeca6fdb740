//! Engine acceptance suite, over the real backends: round trips on
//! file and memory backends, pooled-buffer reads/writes, error semantics
//! (`NotFound`, no poisoning), and seeded 20% transient fault injection
//! with bit-identical re-drives through the in-worker retry layer.

#![cfg(not(loom))]

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mlp_aio::{AioConfig, AioEngine, RetryPolicy};
use mlp_storage::{
    Backend, BreakerState, DirBackend, FaultConfig, FaultInjectBackend, FaultOps, HealthConfig,
    MemBackend, TierHealth,
};
use mlp_tensor::PinnedPool;
use mlp_testkit::ManualClock;
use mlp_trace::TraceSink;

/// Fast-backoff retry policy so fault tests sleep microseconds, not
/// seconds.
fn test_retry(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::from_micros(10),
        backoff_multiplier: 2.0,
        max_backoff: Duration::from_micros(200),
    }
}

/// A distinct temp root per test so engines never see each other's
/// objects.
fn temp_root(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mlp-engine-matrix-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Payload sizes from one byte to a few hundred KiB, page-aligned and
/// not.
const SIZES: &[usize] = &[1, 9, 4096, 10_000, 3 * 4096, 300 * 1024];

#[test]
fn round_trips_on_files() {
    let root = temp_root("files");
    let backend = Arc::new(DirBackend::new("dir", &root).unwrap()) as Arc<dyn Backend>;
    let engine = AioEngine::new(backend, AioConfig::deterministic());
    for (i, &size) in SIZES.iter().enumerate() {
        let key = format!("obj/{i}");
        let payload: Vec<u8> = (0..size).map(|b| (b % 251) as u8).collect();
        engine.submit_write(&key, payload.clone()).wait().unwrap();
        let back = engine.submit_read(&key).wait().unwrap().unwrap();
        assert_eq!(back, payload, "size {size} corrupted");
        engine.submit_delete(&key).wait().unwrap();
        assert!(
            engine.submit_read(&key).wait().is_err(),
            "deleted object still readable"
        );
    }
    let (reads, writes) = engine.ops_completed();
    assert_eq!((reads, writes), (SIZES.len() as u64, SIZES.len() as u64));
    drop(engine);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn round_trips_in_memory() {
    let backend = Arc::new(MemBackend::new("mem")) as Arc<dyn Backend>;
    let engine = AioEngine::new(backend, AioConfig::deterministic());
    engine.submit_write("k", vec![7u8; 10_000]).wait().unwrap();
    assert_eq!(
        engine.submit_read("k").wait().unwrap().unwrap(),
        vec![7u8; 10_000],
        "in-memory round trip corrupted"
    );
    engine.submit_delete("k").wait().unwrap();
}

#[test]
fn pooled_buffers_round_trip() {
    let root = temp_root("pooled");
    let backend = Arc::new(DirBackend::new("dir", &root).unwrap()) as Arc<dyn Backend>;
    let engine = AioEngine::new(backend, AioConfig::deterministic());
    let pool = PinnedPool::new(4, 64 * 1024);

    let len = 10_000;
    let mut buf = pool.acquire();
    for (i, b) in buf.buffer_mut().as_bytes_mut()[..len]
        .iter_mut()
        .enumerate()
    {
        *b = (i % 241) as u8;
    }
    let expect: Vec<u8> = buf.buffer().as_bytes()[..len].to_vec();
    engine
        .submit_write_pooled("k", buf, len)
        .wait_flush()
        .map_err(|(e, _)| e)
        .unwrap();

    let dst = pool.acquire();
    let (got, n) = engine
        .submit_read_pooled("k", dst, len)
        .wait_pooled()
        .unwrap();
    assert_eq!(n, len, "pooled read returned wrong length");
    assert_eq!(
        &got.buffer().as_bytes()[..n],
        &expect[..],
        "pooled round trip corrupted"
    );
    drop(got);
    drop(engine);
    assert_eq!(pool.outstanding(), 0, "pooled buffers leaked");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn undersized_pooled_reads_fail_with_invalid_input() {
    let root = temp_root("undersized");
    let backend = Arc::new(DirBackend::new("dir", &root).unwrap()) as Arc<dyn Backend>;
    let engine = AioEngine::new(backend, AioConfig::deterministic());
    let pool = PinnedPool::new(2, 64 * 1024);
    engine.submit_write("k", vec![1u8; 4096]).wait().unwrap();
    let err = engine
        .submit_read_pooled("k", pool.acquire(), 100)
        .wait_pooled()
        .unwrap_err();
    assert_eq!(
        err.kind(),
        io::ErrorKind::InvalidInput,
        "oversized object must surface InvalidInput, got {err}"
    );
    drop(engine);
    assert_eq!(pool.outstanding(), 0, "error path leaked a buffer");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn missing_keys_surface_not_found() {
    let root = temp_root("missing");
    let backend = Arc::new(DirBackend::new("dir", &root).unwrap()) as Arc<dyn Backend>;
    let engine = AioEngine::new(backend, AioConfig::deterministic());
    let err = engine.submit_read("never-written").wait().unwrap_err();
    assert_eq!(
        err.kind(),
        io::ErrorKind::NotFound,
        "missing object must be NotFound, got {err}"
    );
    // A failed op must not poison the engine for later ops.
    engine.submit_write("ok", vec![1, 2, 3]).wait().unwrap();
    assert_eq!(
        engine.submit_read("ok").wait().unwrap().unwrap(),
        vec![1, 2, 3],
        "engine unusable after a failed read"
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&root);
}

/// Files under `dir`, recursively: what a pruned directory must not keep.
fn files_under(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| if p.is_dir() { files_under(&p) } else { 1 })
        .sum()
}

/// Payloads from one byte to tens of MiB round-trip through `backend`,
/// deletes are real (a checkpoint prune must not leave ghosts; `stored`
/// counts what the medium holds) and a deleted key stays a typed NotFound.
fn round_trip_and_prune(backend: Arc<dyn Backend>, stored: impl Fn() -> usize) {
    const MIB8: usize = 8 << 20;
    let sizes = [1usize, 4096, MIB8 - 1, MIB8 + 1, 3 * MIB8 + 17];
    let name = backend.name().to_string();
    let engine = AioEngine::new(backend, AioConfig::deterministic());
    for (i, &size) in sizes.iter().enumerate() {
        let key = format!("ckpt/t0/w0/sub{i}");
        let payload: Vec<u8> = (0..size).map(|b| (b % 249) as u8).collect();
        engine.submit_write(&key, payload.clone()).wait().unwrap();
        let back = engine.submit_read(&key).wait().unwrap().unwrap();
        assert_eq!(back, payload, "{name}: object size {size} corrupted");
    }
    assert_eq!(stored(), sizes.len(), "{name}");
    for i in 0..sizes.len() {
        engine
            .submit_delete(&format!("ckpt/t0/w0/sub{i}"))
            .wait()
            .unwrap();
    }
    assert_eq!(stored(), 0, "{name}: prune left ghost objects");
    let err = engine.submit_read("ckpt/t0/w0/sub0").wait().unwrap_err();
    assert_eq!(
        err.kind(),
        io::ErrorKind::NotFound,
        "{name}: deleted object must be NotFound, got {err}"
    );
}

#[test]
fn large_objects_round_trip_and_prune_on_both_publication_media() {
    // The checkpoint pipeline publishes to any backend; the chaos matrix
    // runs it over memory and a directory.
    let mem = Arc::new(MemBackend::new("mem"));
    round_trip_and_prune(Arc::clone(&mem) as Arc<dyn Backend>, || mem.object_count());
    let root = temp_root("publish");
    let dir = Arc::new(DirBackend::new("dir", &root).unwrap());
    round_trip_and_prune(dir, || files_under(&root));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn transient_faults_are_invisible() {
    // The ISSUE acceptance bar: 20% seeded transient faults, and every
    // re-driven read stays bit-identical to the original payload while
    // the retry counters actually move.
    let inject = Arc::new(FaultInjectBackend::new(
        Arc::new(MemBackend::new("mem")) as Arc<dyn Backend>,
        FaultConfig::transient(41, 0.2),
    ));
    let engine = AioEngine::new(
        Arc::clone(&inject) as Arc<dyn Backend>,
        AioConfig {
            retry: test_retry(8),
            ..AioConfig::deterministic()
        },
    );
    let payloads: Vec<Vec<u8>> = (0..16u8)
        .map(|i| vec![i; 1024 + usize::from(i) * 37])
        .collect();
    for (i, p) in payloads.iter().enumerate() {
        engine
            .submit_write(&format!("k{i}"), p.clone())
            .wait()
            .unwrap();
    }
    for round in 0..4 {
        for (i, p) in payloads.iter().enumerate() {
            let back = engine
                .submit_read(&format!("k{i}"))
                .wait()
                .unwrap()
                .unwrap();
            assert_eq!(&back, p, "round {round} key k{i} diverged");
        }
    }
    assert!(inject.counts().transient > 0, "injection never fired");
    assert!(engine.retries() > 0, "retry layer never engaged");
    assert_eq!(engine.op_errors(), 0, "transient fault leaked out");
}

/// A pin is an op like any other: re-driven through transient faults,
/// untouched by later writes of its source, and a missing source is a
/// typed `NotFound`.
#[test]
fn links_retry_and_keep_their_bytes() {
    let inject = Arc::new(FaultInjectBackend::new(
        Arc::new(MemBackend::new("mem")) as Arc<dyn Backend>,
        FaultConfig::transient(7, 0.3),
    ));
    let engine = AioEngine::new(
        Arc::clone(&inject) as Arc<dyn Backend>,
        AioConfig {
            retry: test_retry(16),
            ..AioConfig::deterministic()
        },
    );
    engine.submit_write("live", vec![1; 64]).wait().unwrap();
    let pins: Vec<_> = (0..8).map(|i| format!("pin{i}")).collect();
    for pin in &pins {
        engine.submit_link("live", pin).wait().unwrap();
    }
    engine.submit_write("live", vec![2; 64]).wait().unwrap();
    for pin in &pins {
        assert!(engine.contains(pin));
        assert_eq!(
            engine.submit_read(pin).wait().unwrap().unwrap(),
            vec![1; 64],
            "{pin}"
        );
    }
    assert!(engine.retries() > 0, "retry layer never engaged");
    let err = engine.submit_link("missing", "pin0").wait().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
}

/// A tier whose armed ops sleep their latency spikes on `clock`.
fn spiking(clock: &Arc<ManualClock>, faults: FaultConfig) -> Arc<FaultInjectBackend> {
    let mem = Arc::new(MemBackend::new("mem")) as Arc<dyn Backend>;
    Arc::new(FaultInjectBackend::new(mem, faults).with_clock(clock.clone()))
}

/// Moves `clock` on `by` once an I/O worker sleeps in a spike.
fn pass_asleep(clock: &ManualClock, by: Duration) {
    while !clock.advance_if(by, |w| w.asleep == 1) {
        std::thread::yield_now();
    }
}

/// A hung backend (a latency fault far beyond the deadline) surfaces as
/// a typed `TimedOut` once the deadline passes, not as a stuck
/// `wait_flush`: on the engine's clock the 600 s stall has not ended when
/// the 25 ms deadline answers the waiter. The stalled call returns once
/// the clock passes it, is counted as a *late completion*, and its landed
/// write is handed out once as the op's late settlement.
#[test]
fn hung_backend_surfaces_typed_timeout() {
    let clock = Arc::new(ManualClock::new());
    let spikes = FaultConfig::none(42).with_latency_spikes(1.0, Duration::from_secs(600));
    let fault = spiking(&clock, spikes);
    let engine = AioEngine::new(
        Arc::clone(&fault) as Arc<dyn Backend>,
        AioConfig {
            deadline: Some(Duration::from_millis(25)),
            retry: RetryPolicy::none(),
            clock: clock.clone(),
            ..AioConfig::deterministic()
        },
    );
    let handle = engine.submit_write("k", vec![7u8; 64]);
    pass_asleep(&clock, Duration::from_millis(25));
    let (err, _payload) = handle.wait_flush().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
    assert!(
        mlp_storage::is_transient(&err),
        "a deadline timeout must classify transient"
    );
    assert!(handle.abandoned());
    assert!(
        handle.late_flush(engine.now()).is_none(),
        "settled before the stall ended"
    );
    assert_eq!(engine.op_timeouts(), 1);
    assert_eq!(engine.op_errors(), 1);
    // The stalled call finishes once the clock passes its spike; its
    // publication answers no one and is counted as late, exactly once,
    // and kept: the write landed.
    clock.advance(Duration::from_secs(600));
    assert!(matches!(handle.late_flush(Duration::MAX), Some(Ok(()))));
    assert_eq!(engine.late_completions(), 1);
    assert!(
        handle.late_flush(Duration::ZERO).is_none(),
        "handed out twice"
    );
    // The engine stays serviceable once the tier behaves again.
    fault.set_armed(false);
    assert_eq!(fault.read("k").unwrap(), vec![7u8; 64]);
    engine.submit_write("k2", vec![1u8; 8]).wait().unwrap();
    assert_eq!(engine.op_timeouts(), 1, "healthy op timed out");
}

/// A deadline timeout reaches the tier breaker: with a hair-trigger
/// breaker one timed-out op opens it, and the hung
/// call's late return is counted late without being reported to the
/// breaker.
#[test]
fn hung_tier_timeout_reaches_the_breaker() {
    let clock = Arc::new(ManualClock::new());
    let spikes = FaultConfig::none(42).with_latency_spikes(1.0, Duration::from_millis(400));
    let health = TierHealth::new("mem", HealthConfig::hair_trigger());
    let engine = AioEngine::new(
        spiking(&clock, spikes) as Arc<dyn Backend>,
        AioConfig {
            deadline: Some(Duration::from_millis(50)),
            retry: RetryPolicy::none(),
            workers: 1,
            health: Some(Arc::clone(&health)),
            clock: clock.clone(),
            ..AioConfig::deterministic()
        },
    );
    let write = engine.submit_write("k", vec![7u8; 64]);
    pass_asleep(&clock, Duration::from_millis(50));
    let (err, _payload) = write.wait_flush().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
    assert_ne!(
        health.state(),
        BreakerState::Closed,
        "the timeout never reached the breaker ({:?})",
        health.counts()
    );
    clock.advance(Duration::from_millis(350));
    assert!(write.late_flush(Duration::MAX).is_some());
    assert_eq!(engine.late_completions(), 1);
    assert_eq!(health.counts().failures, 1);
}

/// The hung call's late return is not the tier's answer: it must not
/// count as a success. A breaker that trips on two consecutive failures
/// or on one latency-SLO violation sees two timed-out ops as two
/// failures in a row, with the first op's late (slow) return between
/// them recorded as nothing.
#[test]
fn late_return_of_a_timed_out_op_is_not_a_breaker_success() {
    let clock = Arc::new(ManualClock::new());
    let spikes = FaultConfig::none(42).with_latency_spikes(1.0, Duration::from_millis(300));
    let health = TierHealth::new(
        "mem",
        HealthConfig {
            failure_threshold: 2,
            ..HealthConfig::hair_trigger()
        }
        .with_latency_slo(Duration::from_millis(100), 1),
    );
    let engine = AioEngine::new(
        spiking(&clock, spikes) as Arc<dyn Backend>,
        AioConfig {
            deadline: Some(Duration::from_millis(50)),
            retry: RetryPolicy::none(),
            workers: 1,
            health: Some(Arc::clone(&health)),
            clock: clock.clone(),
            ..AioConfig::deterministic()
        },
    );
    let a = engine.submit_write("a", vec![1u8; 8]);
    pass_asleep(&clock, Duration::from_millis(50));
    assert!(a.wait_flush().is_err());
    clock.advance(Duration::from_millis(250));
    assert!(a.late_flush(Duration::MAX).is_some());
    let counts = health.counts();
    assert_eq!((counts.failures, counts.slo_violations), (1, 0));
    assert_eq!(health.state(), BreakerState::Closed);
    let b = engine.submit_write("b", vec![2u8; 8]);
    pass_asleep(&clock, Duration::from_millis(50));
    assert!(b.wait_flush().is_err());
    assert_eq!(health.state(), BreakerState::Quarantined);
    clock.advance(Duration::from_millis(250));
}

/// A pooled write that fails only after its deadline answered: the
/// waiter gets the typed timeout and no frame — the worker still holds
/// it — and the late settlement hands the failure back with the frame,
/// contents intact, exactly once.
#[test]
fn a_late_failure_hands_its_frame_back_through_the_settlement() {
    let clock = Arc::new(ManualClock::new());
    let faults =
        FaultConfig::permanent(9, 1.0).with_latency_spikes(1.0, Duration::from_millis(200));
    let fault = spiking(&clock, faults);
    let engine = AioEngine::new(
        Arc::clone(&fault) as Arc<dyn Backend>,
        AioConfig {
            deadline: Some(Duration::from_millis(25)),
            retry: RetryPolicy::none(),
            clock: clock.clone(),
            ..AioConfig::deterministic()
        },
    );
    let pool = PinnedPool::new(1, 8);
    let mut frame = pool.acquire();
    frame
        .buffer_mut()
        .as_bytes_mut()
        .copy_from_slice(b"payload!");
    let handle = engine.submit_write_pooled("k", frame, 8);
    pass_asleep(&clock, Duration::from_millis(25));
    let (err, payload) = handle.wait_flush().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
    assert!(payload.is_none() && handle.abandoned());
    clock.advance(Duration::from_millis(175));
    let Some(Err((late, Some(frame)))) = handle.late_flush(Duration::MAX) else {
        panic!("the late failure did not hand its frame back");
    };
    assert_eq!(late.kind(), io::ErrorKind::PermissionDenied, "{late}");
    assert_eq!(frame.as_bytes(), b"payload!");
    assert!(
        handle.late_flush(Duration::ZERO).is_none(),
        "handed out twice"
    );
    assert_eq!(engine.late_completions(), 1);
    assert!(!fault.contains("k"));
    drop(frame);
    assert_eq!(pool.outstanding(), 0);
}

/// The `inflight` registry gauge of a traced engine counts submitted,
/// unanswered ops: it rises with a batch, falls as each op is answered —
/// a timed-out one by its timeout — and is back at 0 after the timed-out
/// op's late completion, which must not take it off a second time.
#[test]
fn inflight_returns_to_zero_after_a_timeout_and_its_late_completion() {
    let clock = Arc::new(ManualClock::new());
    let spikes = FaultConfig::none(5)
        .with_latency_spikes(1.0, Duration::from_millis(200))
        .with_ops(FaultOps::WritesOnly);
    let fault = spiking(&clock, spikes);
    let trace = TraceSink::enabled();
    let engine = AioEngine::new(
        Arc::clone(&fault) as Arc<dyn Backend>,
        AioConfig {
            deadline: Some(Duration::from_millis(50)),
            retry: RetryPolicy::none(),
            trace: trace.clone(),
            clock: clock.clone(),
            ..AioConfig::deterministic()
        },
    );
    let inflight = trace.gauge("aio.mem+faults.inflight");
    fault.set_armed(false);
    for i in 0..4 {
        engine
            .submit_write(&format!("k{i}"), vec![i; 16])
            .wait()
            .unwrap();
    }
    assert_eq!(inflight.get(), 0);
    fault.set_armed(true);
    let stalled = engine.submit_write("k0", vec![9; 16]);
    let reads: Vec<_> = (0..4)
        .map(|i| engine.submit_read(&format!("k{i}")))
        .collect();
    assert!(inflight.get() >= 1, "the stalled write is not counted");
    for (i, h) in reads.into_iter().enumerate() {
        assert_eq!(h.wait().unwrap().unwrap(), vec![i as u8; 16]);
    }
    pass_asleep(&clock, Duration::from_millis(50));
    let err = stalled.wait_flush().unwrap_err().0;
    assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
    assert_eq!(inflight.get(), 0, "every op was answered");
    clock.advance(Duration::from_millis(150));
    assert!(stalled.late_flush(Duration::MAX).is_some());
    assert_eq!(engine.late_completions(), 1, "late completion lost");
    assert_eq!(inflight.get(), 0, "the late completion was taken off again");
}

/// The breaker admits and observes every backend attempt, below retry:
/// a transient error retried twice is three failures; two permanent
/// failures trip a two-failure breaker; from then on every op is refused
/// with the typed rejection — permanent, so retry stops dead — without
/// touching the backend, and a refused pooled write hands its frame
/// back untouched.
#[test]
fn breaker_admits_and_observes_every_attempt() {
    let flaky = Arc::new(FaultInjectBackend::new(
        Arc::new(MemBackend::new("flaky")) as Arc<dyn Backend>,
        FaultConfig::transient(3, 1.0),
    ));
    let health = TierHealth::new(
        "flaky",
        HealthConfig {
            failure_threshold: 10,
            ..HealthConfig::default()
        },
    );
    let engine = AioEngine::new(
        flaky as Arc<dyn Backend>,
        AioConfig {
            retry: test_retry(3),
            health: Some(Arc::clone(&health)),
            ..AioConfig::deterministic()
        },
    );
    assert!(engine.submit_read("k").wait().is_err());
    assert_eq!((engine.retries(), health.counts().failures), (2, 3));

    let mem = Arc::new(MemBackend::new("nvme"));
    let health = TierHealth::new(
        "nvme",
        HealthConfig {
            failure_threshold: 2,
            max_trips: 1,
            ..HealthConfig::default()
        },
    );
    let engine = AioEngine::new(
        Arc::clone(&mem) as Arc<dyn Backend>,
        AioConfig {
            retry: test_retry(3),
            health: Some(Arc::clone(&health)),
            ..AioConfig::deterministic()
        },
    );
    let pool = PinnedPool::new(1, 7);
    engine
        .submit_write("k", b"draft..".to_vec())
        .wait()
        .unwrap();
    let mut frame = pool.acquire();
    frame
        .buffer_mut()
        .as_bytes_mut()
        .copy_from_slice(b"payload");
    engine.submit_write_pooled("k", frame, 7).wait().unwrap();
    assert_eq!(engine.submit_read("k").wait().unwrap().unwrap(), b"payload");
    assert_eq!(health.state(), BreakerState::Closed);

    assert!(engine.submit_read("missing").wait().is_err());
    assert!(engine.submit_read("missing").wait().is_err());
    assert!(health.is_quarantined());
    assert_eq!(health.counts().failures, 2);

    let err = engine.submit_write("k2", vec![1]).wait().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{err}");
    assert_eq!(
        mlp_storage::classify(&err),
        mlp_storage::ErrorClass::Permanent
    );
    assert_eq!(engine.retries(), 0, "a rejection was retried");
    let rejected = health.counts().rejected;
    let mut frame = pool.acquire();
    frame
        .buffer_mut()
        .as_bytes_mut()
        .copy_from_slice(b"frame..");
    let (err, payload) = engine
        .submit_write_pooled("k2", frame, 7)
        .wait_flush()
        .unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{err}");
    assert_eq!(health.counts().rejected, rejected + 1);
    let Some(frame) = payload else {
        panic!("the refused frame was not handed back");
    };
    assert_eq!(frame.as_bytes(), b"frame..", "refused frame touched");
    assert!(!mem.contains("k2"), "a refused op reached the backend");
}

/// Salvage ops skip admission and nothing else: on a quarantined tier a
/// normal read is refused, while the salvage read and delete that
/// evacuate a surviving copy go through and do not count as rejections.
#[test]
fn salvage_ops_skip_admission() {
    let mem = Arc::new(MemBackend::new("nvme"));
    let health = TierHealth::new("nvme", HealthConfig::default());
    let engine = AioEngine::new(
        Arc::clone(&mem) as Arc<dyn Backend>,
        AioConfig {
            health: Some(Arc::clone(&health)),
            ..AioConfig::deterministic()
        },
    );
    engine
        .submit_write("sub0", b"copy".to_vec())
        .wait()
        .unwrap();
    health.quarantine();

    let err = engine.submit_read("sub0").wait().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{err}");
    let rejected = health.counts().rejected;
    let copy = engine.submit_salvage_read("sub0").wait().unwrap();
    assert_eq!(copy.as_deref(), Some(&b"copy"[..]));
    engine.submit_salvage_delete("sub0").wait().unwrap();
    assert!(!mem.contains("sub0"), "salvage delete did not land");
    assert_eq!(health.counts().rejected, rejected);
    assert!(health.is_quarantined());
}

/// Deadline sanity: fast ops under a generous deadline never trip the
/// watchdog, and behaviour matches the unsupervised engine bit for bit.
#[test]
fn deadline_never_fires_for_fast_ops() {
    let backend = Arc::new(MemBackend::new("mem")) as Arc<dyn Backend>;
    let engine = AioEngine::new(
        backend,
        AioConfig {
            deadline: Some(Duration::from_millis(750)),
            ..AioConfig::deterministic()
        },
    );
    let writes: Vec<_> = (0..32)
        .map(|i| engine.submit_write(&format!("k{i}"), vec![i as u8; 128]))
        .collect();
    for h in writes {
        h.wait().unwrap();
    }
    for i in 0..32 {
        let back = engine
            .submit_read(&format!("k{i}"))
            .wait()
            .unwrap()
            .unwrap();
        assert_eq!(back, vec![i as u8; 128]);
    }
    assert_eq!(engine.op_timeouts(), 0, "spurious timeout");
    assert_eq!(engine.late_completions(), 0);
    assert_eq!(engine.op_errors(), 0);
}
