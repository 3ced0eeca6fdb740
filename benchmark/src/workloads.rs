//! The four fixed workloads, their seeded inputs, and the closed loop that
//! drives one engine through set-up, warm-up, measured iterations and the
//! correctness oracle. One driver thread; everything else the program
//! starts (I/O workers, kernel threads) is at library defaults.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::sut::{
    Engine, EngineChoice, Event, EventKind, IterCounts, Medium, Reference, Sink, TierSpec,
    STATE_BYTES_PER_PARAM,
};

/// Warm-up iterations before timing: two full ascending/descending cycles
/// of the alternating order, so the cache is warm and pools are at their
/// high-water mark.
pub const WARMUP_ITERS: usize = 4;

/// Nominal bandwidth of the emulated `nvme` tier, bytes per second; `pfs`
/// has half of it. The emulation sleeps `bytes / bps` per operation, so two
/// I/O workers see twice this. Chosen so that device time is over 80 % of an
/// update on both `throttled_*` workloads (README.md, "Findings").
const NVME_BPS: f64 = 64e6;

/// Subgroups the oracle checks bit-for-bit: first, last, two by the seed.
const ORACLE_SUBGROUPS: usize = 4;

pub const WORKLOAD_NAMES: [&str; 4] =
    ["mem_small", "dir_large", "throttled_mlp", "throttled_zero3"];

/// The workloads BENCHMARK.json lists, which a later change is gated on.
/// `dir_large` is not one: inside a checkout its tiers sit on the sandbox's
/// shared disk, and no statistic of its timings repeats within a bound
/// there (README.md, "Why `dir_large` is not gated").
pub const GATED_WORKLOADS: [&str; 3] = ["mem_small", "throttled_mlp", "throttled_zero3"];

/// Full size as fixed by the benchmark, or the self-test's toy size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Toy,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub engine: EngineChoice,
    /// Parameters per subgroup.
    pub n: usize,
    /// Subgroups.
    pub m: usize,
    pub tiers: Vec<TierSpec>,
    /// Directory the `Dir` tiers live under, if the workload has any.
    pub tier_dir: Option<PathBuf>,
}

impl Workload {
    /// The workload called `name`; `Dir` tiers go under `tier_root`.
    pub fn named(name: &str, size: Size, tier_root: &Path) -> Option<Workload> {
        let name = WORKLOAD_NAMES.into_iter().find(|known| *known == name)?;
        let toy = size == Size::Toy;
        let dims = |n: usize, m: usize| if toy { (1024, 8) } else { (n, m) };
        // The toy size runs its emulated devices 100x faster.
        let speed = if toy { 100.0 } else { 1.0 };
        let throttled = |name, bps: f64, weight| TierSpec {
            name,
            medium: Medium::Throttled {
                read_bps: bps * speed,
                write_bps: bps * speed,
            },
            weight,
        };
        let tier_dir = tier_root.join(format!("tiers-{}", std::process::id()));
        let (engine, (n, m), tiers, uses_dir) = match name {
            "mem_small" => (
                EngineChoice::Mlp,
                dims(16 << 10, 1024),
                vec![
                    TierSpec {
                        name: "mem0",
                        medium: Medium::Mem,
                        weight: 2.0,
                    },
                    TierSpec {
                        name: "mem1",
                        medium: Medium::Mem,
                        weight: 1.0,
                    },
                ],
                false,
            ),
            "dir_large" => (
                EngineChoice::Mlp,
                dims(1 << 20, 32),
                vec![
                    TierSpec {
                        name: "dir0",
                        medium: Medium::Dir(tier_dir.join("t0")),
                        weight: 2.0,
                    },
                    TierSpec {
                        name: "dir1",
                        medium: Medium::Dir(tier_dir.join("t1")),
                        weight: 1.0,
                    },
                ],
                true,
            ),
            "throttled_mlp" => (
                EngineChoice::Mlp,
                dims(128 << 10, 32),
                vec![
                    throttled("nvme", NVME_BPS, 2.0),
                    throttled("pfs", NVME_BPS / 2.0, 1.0),
                ],
                false,
            ),
            "throttled_zero3" => (
                EngineChoice::Zero3,
                dims(128 << 10, 32),
                vec![throttled("nvme", NVME_BPS, 2.0)],
                false,
            ),
            _ => unreachable!("every name in WORKLOAD_NAMES has an arm"),
        };
        Some(Workload {
            name,
            engine,
            n,
            m,
            tiers,
            tier_dir: uses_dir.then_some(tier_dir),
        })
    }

    pub fn params(&self) -> usize {
        self.n * self.m
    }

    /// Bytes of one subgroup's serialized optimizer state.
    pub fn object_bytes(&self) -> usize {
        self.n * STATE_BYTES_PER_PARAM
    }

    /// Hold this while anything may create files under `tier_dir`.
    pub fn tier_dir_guard(&self) -> TierDirGuard {
        TierDirGuard(self.tier_dir.clone())
    }
}

// ---------------------------------------------------------------------------
// seeded inputs
// ---------------------------------------------------------------------------

/// SplitMix64: the benchmark's own generator, so inputs depend on the seed
/// and on nothing in the program.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Initial FP32 parameters in [-1, 1), one vector per subgroup.
fn gen_params(rng: &mut Rng, n: usize, m: usize) -> Vec<Vec<f32>> {
    let unit = |bits: u32| (bits >> 8) as f32 / (1u32 << 23) as f32 - 1.0;
    (0..m)
        .map(|_| {
            let mut v = Vec::with_capacity(n);
            while v.len() < n {
                let r = rng.next_u64();
                v.push(unit(r as u32));
                if v.len() < n {
                    v.push(unit((r >> 32) as u32));
                }
            }
            v
        })
        .collect()
}

/// One FP16 gradient set, as bits: random sign and mantissa, magnitude in
/// [2^-10, 2^-2). Always normal and non-zero, so accumulating into a zeroed
/// FP16 or FP32 buffer is exact on both engines and the oracle is exact.
fn gen_grads(rng: &mut Rng, n: usize, m: usize) -> Vec<Vec<u16>> {
    let half = |bits: u16| {
        let sign = bits & 0x8000;
        let exponent = 5 + ((bits >> 10) & 0x7); // biased 5..=12
        sign | (exponent << 10) | (bits & 0x03FF)
    };
    (0..m)
        .map(|_| {
            let mut v = Vec::with_capacity(n);
            while v.len() < n {
                let mut r = rng.next_u64();
                for _ in 0..4 {
                    if v.len() < n {
                        v.push(half(r as u16));
                    }
                    r >>= 16;
                }
            }
            v
        })
        .collect()
}

// ---------------------------------------------------------------------------
// process accounting
// ---------------------------------------------------------------------------

/// User + system CPU seconds of this process so far: every thread,
/// including ones that have exited, at the scheduler's nanosecond
/// resolution (`/proc/self/stat` has the same total in 10 ms ticks, too
/// coarse for one iteration).
pub fn process_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock_id: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    }
    // <time.h> on Linux.
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // 64-bit Linux, the only platform the benchmark's /proc reads support),
    // and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always readable on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

// ---------------------------------------------------------------------------
// the closed loop
// ---------------------------------------------------------------------------

/// How long to measure: the contract's wall-clock budget, or a fixed count
/// (the self-test).
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Seconds(f64),
    #[cfg_attr(not(test), allow(dead_code))]
    Iters(usize),
}

/// Timestamps (ns on the session clock) around the public calls of one
/// iteration, and what `update` returned.
#[derive(Clone, Copy, Debug)]
pub struct IterSample {
    pub start_ns: u64,
    pub accumulated_ns: u64,
    pub grads_flushed_ns: u64,
    pub end_ns: u64,
    /// `None` when `flush_gradients` or `update` returned an error.
    pub counts: Option<IterCounts>,
    /// Process CPU seconds (all threads) spent over the iteration.
    pub cpu_s: f64,
}

impl IterSample {
    pub fn iter_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
    pub fn accumulate_s(&self) -> f64 {
        (self.accumulated_ns - self.start_ns) as f64 * 1e-9
    }
    pub fn grad_flush_s(&self) -> f64 {
        (self.grads_flushed_ns - self.accumulated_ns) as f64 * 1e-9
    }
    pub fn update_s(&self) -> f64 {
        (self.end_ns - self.grads_flushed_ns) as f64 * 1e-9
    }

    /// The benchmark's own spans of this iteration that the Chrome export
    /// adds: the iteration and `accumulate_gradients` (the program records
    /// `grad_flush` and `update` spans of its own).
    pub fn spans(&self) -> [Event; 2] {
        let span = |kind, start: u64, end: u64| Event {
            kind,
            tier: -1,
            bytes: 0,
            start_ns: start,
            dur_ns: end - start,
        };
        [
            span(EventKind::Iteration, self.start_ns, self.end_ns),
            span(EventKind::Accumulate, self.start_ns, self.accumulated_ns),
        ]
    }
}

/// The measured iterations of one run.
pub struct Measured {
    pub samples: Vec<IterSample>,
    /// Program events drained after each iteration (traced runs only).
    pub events: Vec<Vec<Event>>,
}

impl Measured {
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| s.counts.is_none()).count()
    }
}

/// Removes the workload's tier directories when dropped, also on failure.
pub struct TierDirGuard(Option<PathBuf>);

impl Drop for TierDirGuard {
    fn drop(&mut self) {
        if let Some(dir) = &self.0 {
            // Nothing useful to do with an error while unwinding.
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One engine, set up and warmed, with its inputs and its oracle.
pub struct Session {
    // Field order is drop order: the engine's I/O workers stop before the
    // tier directories go away.
    engine: Engine,
    _tier_dirs: TierDirGuard,
    sink: Option<Sink>,
    epoch: Instant,
    grads: [Vec<Vec<u16>>; 2],
    /// The oracle: `(subgroup, never-offloaded reference)`.
    references: Vec<(usize, Reference)>,
    iters_done: usize,
}

impl Session {
    /// Set-up as a user pays it: generate the inputs from `seed`, create the
    /// tiers, build the engine (which offloads the initial state), and warm
    /// up. Returns the session and the seconds all of that took.
    pub fn set_up(
        w: &Workload,
        seed: u64,
        traced: bool,
        warmup: usize,
    ) -> io::Result<(Session, f64)> {
        let started = Instant::now();
        let guard = w.tier_dir_guard();
        let mut rng = Rng::new(seed);
        let params = gen_params(&mut rng, w.n, w.m);
        let grads = [gen_grads(&mut rng, w.n, w.m), gen_grads(&mut rng, w.n, w.m)];

        let mut picks = vec![0, w.m - 1];
        while picks.len() < ORACLE_SUBGROUPS.min(w.m) {
            let pick = (rng.next_u64() % w.m as u64) as usize;
            if !picks.contains(&pick) {
                picks.push(pick);
            }
        }
        let references = picks
            .into_iter()
            .map(|sg| (sg, Reference::new(params[sg].clone())))
            .collect();

        // One iteration's events must fit the ring: a subgroup costs about a
        // dozen (two I/O ops, each with a tier span and pool traffic).
        let sink = traced.then(|| Sink::with_capacity((w.m * 64).max(1 << 16)));
        let engine = Engine::build(w.engine, &w.tiers, params, sink.as_ref())?;
        let mut session = Session {
            engine,
            _tier_dirs: guard,
            sink,
            epoch: Instant::now(),
            grads,
            references,
            iters_done: 0,
        };
        for _ in 0..warmup {
            let sample = session.iterate();
            if sample.counts.is_none() {
                return Err(io::Error::other("an iteration failed during warm-up"));
            }
            session.drain();
        }
        Ok((session, started.elapsed().as_secs_f64()))
    }

    fn now_ns(&self) -> u64 {
        match &self.sink {
            Some(s) => s.now_ns(),
            None => self.epoch.elapsed().as_nanos() as u64,
        }
    }

    fn drain(&mut self) -> Vec<Event> {
        self.sink.as_mut().map(Sink::drain).unwrap_or_default()
    }

    /// One iteration: `accumulate_gradients` (+ `flush_gradients` on the
    /// baseline) + `update`, each inside the benchmark's own span.
    fn iterate(&mut self) -> IterSample {
        let grads = &self.grads[self.iters_done % 2];
        let cpu_before = process_cpu_seconds();
        let start_ns = self.now_ns();
        self.engine.accumulate_gradients(grads);
        let accumulated_ns = self.now_ns();
        let flushed = self.engine.flush_gradients();
        let grads_flushed_ns = self.now_ns();
        let counts = flushed.and_then(|()| self.engine.update());
        let end_ns = self.now_ns();
        let cpu_s = process_cpu_seconds() - cpu_before;
        if counts.is_ok() {
            self.iters_done += 1;
        }
        IterSample {
            start_ns,
            accumulated_ns,
            grads_flushed_ns,
            end_ns,
            counts: counts.ok(),
            cpu_s,
        }
    }

    /// Runs measured iterations until `budget` is used up. A wall-clock
    /// budget always measures an even count of at least four, so both
    /// directions of the alternating order weigh the same. Stops at the
    /// first failed iteration: the engine then still holds its gradients,
    /// and accumulating again would no longer be the sequence the oracle
    /// replays.
    pub fn measure(&mut self, budget: Budget) -> Measured {
        let mut samples = Vec::new();
        let mut events = Vec::new();
        let started = Instant::now();
        loop {
            let done = samples.len();
            let stop = match budget {
                Budget::Iters(n) => done >= n,
                Budget::Seconds(s) => {
                    done >= 4 && done % 2 == 0 && started.elapsed().as_secs_f64() >= s
                }
            };
            if stop {
                break;
            }
            let sample = self.iterate();
            samples.push(sample);
            if self.sink.is_some() {
                events.push(self.drain());
            }
            if sample.counts.is_none() {
                break;
            }
        }
        Measured { samples, events }
    }

    /// The oracle: master parameters of the sampled subgroups must equal,
    /// bit for bit, a never-offloaded reference that saw the same gradient
    /// sequence.
    pub fn verify(mut self) -> io::Result<bool> {
        for (sg, reference) in &mut self.references {
            for it in 0..self.iters_done {
                reference.apply(&self.grads[it % 2][*sg]);
            }
        }
        let master = self.engine.master_params()?;
        Ok(self.references.iter().all(|(sg, reference)| {
            let got = &master[*sg];
            let want = reference.params();
            got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        }))
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn sink(&self) -> Option<&Sink> {
        self.sink.as_ref()
    }
}
