//! The system under test. This is the only file of the benchmark that names
//! an item of the program; everything else goes through the wrappers here.
//! A change to one of the program signatures used below must be preceded by
//! a `benchmark` change that updates this file (README.md, "API surface").

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use mlp_aio::{AioConfig, AioEngine, OpHandle, ProcessExclusiveLock};
use mlp_offload::func::{MlpFuncEngine, SharedTier, UpdateOutcome};
use mlp_offload::EngineConfig;
use mlp_optim::fused::fused_update_fp16;
use mlp_optim::{AdamConfig, OptimizerConfig, SubgroupState};
use mlp_storage::{Backend, ChecksummedBackend, DirBackend, MemBackend, TracedBackend};
use mlp_tensor::{convert, PinnedPool, F16};
use mlp_trace::{chrome_trace_json, Phase, TraceEvent, TraceSink};
use mlp_zero3::Zero3FuncEngine;

/// Bytes of FP32 master state per parameter (params + two Adam moments).
pub const STATE_BYTES_PER_PARAM: usize = 12;

/// What a tier stores its objects on.
#[derive(Clone, Debug)]
pub enum Medium {
    /// Unthrottled in-memory store.
    Mem,
    /// In-memory store that sleeps `bytes / bps` per operation.
    Throttled { read_bps: f64, write_bps: f64 },
    /// One file per object under this directory.
    Dir(PathBuf),
}

/// One storage tier of a workload: its medium and its Eq. 1 weight.
#[derive(Clone, Debug)]
pub struct TierSpec {
    pub name: &'static str,
    pub medium: Medium,
    pub weight: f64,
}

/// Which engine a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineChoice {
    Mlp,
    Zero3,
}

fn adam() -> AdamConfig {
    AdamConfig::default()
}

// ---------------------------------------------------------------------------
// storage
// ---------------------------------------------------------------------------

/// A storage backend, called directly (no I/O engine in between).
pub struct Store(Arc<dyn Backend>);

impl Store {
    pub fn open(name: &str, medium: &Medium) -> io::Result<Store> {
        Ok(Store(match medium {
            Medium::Mem => Arc::new(MemBackend::new(name)),
            Medium::Throttled {
                read_bps,
                write_bps,
            } => Arc::new(MemBackend::throttled(name, *read_bps, *write_bps)),
            Medium::Dir(root) => Arc::new(DirBackend::new(name, root)?),
        }))
    }

    /// The same store behind the CRC-32 decorator.
    pub fn checksummed(&self) -> Store {
        Store(Arc::new(ChecksummedBackend::new(Arc::clone(&self.0))))
    }

    pub fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
        self.0.write(key, data)
    }

    pub fn read_into(&self, key: &str, dst: &mut [u8]) -> io::Result<usize> {
        self.0.read_into(key, dst)
    }
}

// ---------------------------------------------------------------------------
// aio
// ---------------------------------------------------------------------------

/// `(workers, queue_depth)` that `AioConfig::default()` resolves to here.
pub fn aio_defaults() -> (usize, usize) {
    let cfg = AioConfig::default();
    (cfg.workers, cfg.queue_depth)
}

/// An I/O engine over one store plus the staging pool its pooled ops use,
/// at library defaults: what one tier of an engine looks like from outside.
pub struct AioProbe {
    engine: AioEngine,
    pool: PinnedPool,
}

/// A submitted pooled operation.
pub struct Pending {
    handle: OpHandle,
    is_read: bool,
}

impl AioProbe {
    pub fn new(store: &Store, buffers: usize, buffer_bytes: usize) -> AioProbe {
        AioProbe {
            engine: AioEngine::new(Arc::clone(&store.0), AioConfig::default()),
            pool: PinnedPool::new(buffers, buffer_bytes),
        }
    }

    /// Submits a pooled write of `len` bytes (blocks while the pool is
    /// empty).
    pub fn write(&self, key: &str, len: usize) -> Pending {
        let handle = self
            .engine
            .submit_write_pooled(key, self.pool.acquire(), len);
        Pending {
            handle,
            is_read: false,
        }
    }

    /// Submits a pooled read of `len` bytes.
    pub fn read(&self, key: &str, len: usize) -> Pending {
        let handle = self
            .engine
            .submit_read_pooled(key, self.pool.acquire(), len);
        Pending {
            handle,
            is_read: true,
        }
    }
}

impl Pending {
    /// Blocks until the operation completes; the staging buffer goes back
    /// to the pool.
    pub fn wait(self) -> io::Result<()> {
        if self.is_read {
            self.handle.wait_pooled().map(|(_buf, _len)| ())
        } else {
            self.handle.wait_flush().map_err(|(e, _payload)| e)
        }
    }
}

/// The tier lock, as a worker process sees it.
pub struct TierLock(ProcessExclusiveLock);

impl TierLock {
    pub fn new() -> TierLock {
        TierLock(ProcessExclusiveLock::new())
    }

    /// Acquires and releases one share for `holder`.
    pub fn acquire_release(&self, holder: usize) {
        drop(self.0.acquire(holder));
    }
}

// ---------------------------------------------------------------------------
// tensor
// ---------------------------------------------------------------------------

/// A staging-buffer pool on its own.
pub struct BufferPool(PinnedPool);

impl BufferPool {
    pub fn new(buffers: usize, buffer_bytes: usize) -> BufferPool {
        BufferPool(PinnedPool::new(buffers, buffer_bytes))
    }

    pub fn acquire_release(&self) {
        drop(self.0.acquire());
    }
}

/// FP16 → FP32 conversion, the ZeRO-3 accumulate path.
pub fn upscale(src: &[u16], dst: &mut [f32]) {
    convert::upscale(src, dst);
}

/// FP16 bits of `x`.
pub fn f16_bits(x: f32) -> u16 {
    F16::from_f32(x).to_bits()
}

// ---------------------------------------------------------------------------
// optim
// ---------------------------------------------------------------------------

/// One fused Adam sweep over caller-owned arrays (the engines' kernel).
pub fn fused_adam_step(
    step: u64,
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads_fp16: &[u16],
    fp16_out: &mut [u16],
) {
    let opt = OptimizerConfig::from(adam());
    fused_update_fp16(
        &opt, step, params, momentum, variance, grads_fp16, 1.0, fp16_out,
    );
}

/// The never-offloaded reference the oracle compares against: one
/// subgroup's state kept in memory, updated by the program's multi-pass
/// (unfused) path.
pub struct Reference {
    state: SubgroupState,
    opt: OptimizerConfig,
}

impl Reference {
    pub fn new(params: Vec<f32>) -> Reference {
        Reference {
            state: SubgroupState::new(params),
            opt: OptimizerConfig::from(adam()),
        }
    }

    pub fn apply(&mut self, grads_fp16: &[u16]) {
        self.state.apply_update_fp16_opt(&self.opt, grads_fp16, 1.0);
    }

    pub fn params(&self) -> &[f32] {
        &self.state.params
    }
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

/// An event read back from the program's sink, or one of the benchmark's
/// own spans on the same clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    pub kind: EventKind,
    pub tier: i32,
    pub bytes: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The program events the attribution reads, plus the benchmark's spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Benchmark span: one whole iteration.
    Iteration,
    /// Benchmark span: `accumulate_gradients`.
    Accumulate,
    UpdateKernel,
    AioRead,
    AioWrite,
    TierRead,
    TierWrite,
    PoolAcquire,
    /// Any other program event (counted, not attributed).
    Other,
}

fn kind_of(phase: Phase) -> EventKind {
    match phase {
        Phase::UpdateKernel => EventKind::UpdateKernel,
        Phase::AioRead => EventKind::AioRead,
        Phase::AioWrite => EventKind::AioWrite,
        Phase::TierRead => EventKind::TierRead,
        Phase::TierWrite => EventKind::TierWrite,
        Phase::PoolAcquire => EventKind::PoolAcquire,
        _ => EventKind::Other,
    }
}

/// The program's sink, sized so that one iteration never overflows it.
pub struct Sink {
    sink: TraceSink,
    /// Everything drained so far, for the Chrome export.
    raw: Vec<TraceEvent>,
}

impl Sink {
    pub fn with_capacity(events: usize) -> Sink {
        Sink {
            sink: TraceSink::with_capacity(events),
            raw: Vec::new(),
        }
    }

    /// Nanoseconds on the sink's clock (shared by the benchmark's spans).
    pub fn now_ns(&self) -> u64 {
        self.sink.now_ns()
    }

    /// Drains the events recorded since the last call. Call between
    /// iterations, when the program's producers are quiet.
    pub fn drain(&mut self) -> Vec<Event> {
        let events = self.sink.events();
        let out = events
            .iter()
            .map(|e| Event {
                kind: kind_of(e.phase),
                tier: e.tier,
                bytes: e.bytes,
                start_ns: e.ts_ns,
                dur_ns: e.dur_ns,
            })
            .collect();
        self.raw.extend(events);
        out
    }

    /// Events that missed the ring (must stay 0).
    pub fn overflow_events(&self) -> u64 {
        self.sink.overflow_count()
    }

    /// Chrome-format JSON of every drained program event plus the
    /// benchmark's own iteration and accumulate spans.
    pub fn chrome_json(&self, own: &[Event]) -> String {
        let mut all = self.raw.clone();
        let mut seq = all.iter().map(|e| e.seq + 1).max().unwrap_or(0);
        for e in own {
            let phase = match e.kind {
                EventKind::Iteration => Phase::Iteration,
                EventKind::Accumulate => Phase::Backward,
                _ => continue,
            };
            all.push(TraceEvent {
                seq,
                kind: mlp_trace::EventKind::Span,
                phase,
                ts_ns: e.start_ns,
                dur_ns: e.dur_ns,
                ..TraceEvent::EMPTY
            });
            seq += 1;
        }
        chrome_trace_json(&all)
    }
}

// ---------------------------------------------------------------------------
// engines
// ---------------------------------------------------------------------------

/// What one `update` call reports through the public API.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterCounts {
    pub cache_hits: u64,
    pub fetches: u64,
    pub flushes: u64,
    /// FP32 gradient bytes through storage (ZeRO-3; 0 for MLP-Offload).
    pub grad_bytes: u64,
}

// One engine per process: the size difference between the variants costs
// nothing.
#[allow(clippy::large_enum_variant)]
enum EngineImpl {
    Mlp(MlpFuncEngine),
    Zero3(Zero3FuncEngine),
}

/// One engine over freshly created tiers, at library defaults.
pub struct Engine(EngineImpl);

impl Engine {
    /// Creates the tiers and the engine and offloads `params` (one vector
    /// per subgroup) as the initial optimizer state. `sink` enables the
    /// program's existing tracing through its public switches.
    pub fn build(
        choice: EngineChoice,
        tiers: &[TierSpec],
        params: Vec<Vec<f32>>,
        sink: Option<&Sink>,
    ) -> io::Result<Engine> {
        let m = params.len();
        let initial: Vec<SubgroupState> = params.into_iter().map(SubgroupState::new).collect();
        match choice {
            EngineChoice::Mlp => {
                let shared = tiers
                    .iter()
                    .map(|t| Ok(SharedTier::new(Store::open(t.name, &t.medium)?.0, t.weight)))
                    .collect::<io::Result<Vec<_>>>()?;
                // 3 pipeline frames plus a quarter of the subgroups retained.
                let mut cfg = EngineConfig::mlp_offload().with_host_frames(3 + m / 4);
                if let Some(s) = sink {
                    cfg = cfg.with_trace(s.sink.clone());
                }
                MlpFuncEngine::new(cfg, adam(), &shared, 0, initial)
                    .map(|e| Engine(EngineImpl::Mlp(e)))
            }
            EngineChoice::Zero3 => {
                let tier = tiers.first().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "the baseline needs one tier")
                })?;
                let backend = Store::open(tier.name, &tier.medium)?.0;
                let engine = match sink {
                    None => Zero3FuncEngine::new(backend, adam(), 0, initial),
                    Some(s) => Zero3FuncEngine::with_aio(
                        Arc::new(TracedBackend::new(backend, 0, s.sink.clone())),
                        adam(),
                        0,
                        initial,
                        AioConfig {
                            trace: s.sink.clone(),
                            trace_tier: 0,
                            ..AioConfig::default()
                        },
                    ),
                };
                engine.map(|e| Engine(EngineImpl::Zero3(e)))
            }
        }
    }

    pub fn accumulate_gradients(&mut self, grads: &[Vec<u16>]) {
        match &mut self.0 {
            EngineImpl::Mlp(e) => e.accumulate_gradients(grads),
            EngineImpl::Zero3(e) => e.accumulate_gradients(grads),
        }
    }

    pub fn flush_gradients(&mut self) -> io::Result<()> {
        match &mut self.0 {
            EngineImpl::Mlp(_) => Ok(()),
            EngineImpl::Zero3(e) => e.flush_gradients(),
        }
    }

    pub fn update(&mut self) -> io::Result<IterCounts> {
        match &mut self.0 {
            EngineImpl::Mlp(e) => {
                let UpdateOutcome {
                    cache_hits,
                    fetches,
                    flushes,
                    fp16_params,
                } = e.update()?;
                std::hint::black_box(&fp16_params);
                Ok(IterCounts {
                    cache_hits: cache_hits as u64,
                    fetches: fetches as u64,
                    flushes: flushes as u64,
                    grad_bytes: 0,
                })
            }
            EngineImpl::Zero3(e) => {
                let out = e.update()?;
                std::hint::black_box(&out.fp16_params);
                Ok(IterCounts {
                    cache_hits: 0,
                    fetches: out.fetches as u64,
                    // The baseline writes every fetched subgroup back.
                    flushes: out.fetches as u64,
                    grad_bytes: out.grad_bytes_through_storage,
                })
            }
        }
    }

    pub fn master_params(&self) -> io::Result<Vec<Vec<f32>>> {
        match &self.0 {
            EngineImpl::Mlp(e) => e.master_params(),
            EngineImpl::Zero3(e) => e.master_params(),
        }
    }

    /// `(high-water mark, capacity)` of the state staging pool; the
    /// baseline does not expose its pool, so it reports zeros.
    pub fn state_pool(&self) -> (u64, u64) {
        match &self.0 {
            EngineImpl::Mlp(e) => {
                let (_acquires, high_water, capacity) = e.state_pool_stats();
                (high_water as u64, capacity as u64)
            }
            EngineImpl::Zero3(_) => (0, 0),
        }
    }

    /// `(retries, errors)` of the I/O layer so far.
    pub fn io_faults(&self) -> (u64, u64) {
        match &self.0 {
            EngineImpl::Mlp(e) => (e.io_retries(), e.io_errors()),
            EngineImpl::Zero3(e) => (e.io_retries(), e.io_errors()),
        }
    }
}
